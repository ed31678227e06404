package mat

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
)

func newMachine(p int) *machine.Machine { return machine.New(machine.Default(p)) }

func run(m *machine.Machine, n *core.Node, s core.Scheduler) core.Result {
	return core.NewEngine(m, s, core.Options{}).Run(n)
}

func fillSeq(m *machine.Machine, v View) {
	for i := int64(0); i < v.Rows; i++ {
		for j := int64(0); j < v.Cols; j++ {
			v.Set(m.Space, i, j, i*1000+j)
		}
	}
}

func TestMortonRoundTrip(t *testing.T) {
	f := func(i, j uint16) bool {
		z := Morton(int64(i), int64(j))
		ri, rj := MortonDecode(z)
		return ri == int64(i) && rj == int64(j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMortonQuadrantOrder(t *testing.T) {
	// In a 2×2 matrix: TL=0, TR=1, BL=2, BR=3.
	cases := []struct{ i, j, want int64 }{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 2}, {1, 1, 3},
		// 4×4: quadrant bases 0,4,8,12.
		{0, 2, 4}, {2, 0, 8}, {2, 2, 12}, {3, 3, 15},
	}
	for _, c := range cases {
		if got := Morton(c.i, c.j); got != c.want {
			t.Errorf("Morton(%d,%d) = %d, want %d", c.i, c.j, got, c.want)
		}
	}
}

func TestMortonContiguousQuadrants(t *testing.T) {
	// Every element of quadrant q of an n×n BI matrix lies in
	// [q·n²/4, (q+1)·n²/4): the property giving MT its O(1) block sharing.
	n := int64(16)
	h := n / 2
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			q := (i/h)*2 + j/h
			z := Morton(i, j)
			if z < q*h*h || z >= (q+1)*h*h {
				t.Fatalf("Morton(%d,%d)=%d outside quadrant %d range", i, j, z, q)
			}
		}
	}
}

func TestMT(t *testing.T) {
	for _, p := range []int{1, 4, 8} {
		for _, n := range []int64{1, 2, 4, 16, 32} {
			m := newMachine(p)
			src := AllocBI(m.Space, n, 1)
			dst := AllocBI(m.Space, n, 1)
			fillSeq(m, src)
			run(m, MT(src, dst), sched.NewPWS())
			for i := int64(0); i < n; i++ {
				for j := int64(0); j < n; j++ {
					if got, want := dst.Get(m.Space, i, j), src.Get(m.Space, j, i); got != want {
						t.Fatalf("p=%d n=%d: dst(%d,%d)=%d, want %d", p, n, i, j, got, want)
					}
				}
			}
		}
	}
}

func checkEqualRMBI(t *testing.T, m *machine.Machine, rm, bi View) {
	t.Helper()
	for i := int64(0); i < rm.Rows; i++ {
		for j := int64(0); j < rm.Cols; j++ {
			if got, want := bi.Get(m.Space, i, j), rm.Get(m.Space, i, j); got != want {
				t.Fatalf("(%d,%d): bi=%d rm=%d", i, j, got, want)
			}
		}
	}
}

func TestRMtoBIAndBack(t *testing.T) {
	for _, n := range []int64{1, 2, 8, 32} {
		m := newMachine(4)
		rm := AllocRM(m.Space, n, n, 1)
		bi := AllocBI(m.Space, n, 1)
		back := AllocRM(m.Space, n, n, 1)
		fillSeq(m, rm)
		run(m, RMtoBI(rm, bi), sched.NewPWS())
		checkEqualRMBI(t, m, rm, bi)
		m2 := machine.New(machine.Default(4))
		_ = m2
		run(m, DirectBItoRM(bi, back), sched.NewPWS())
		checkEqualRMBI(t, m, back, bi)
	}
}

func TestGapLayoutOffsetsMonotone(t *testing.T) {
	for _, n := range []int64{2, 8, 64, 256} {
		g := NewGapLayout(n)
		prev := int64(-1)
		for j := int64(0); j < n; j++ {
			off := g.colOff[j]
			if off <= prev {
				t.Fatalf("n=%d: colOff[%d]=%d not increasing (prev %d)", n, j, off, prev)
			}
			prev = off
		}
		if g.Pitch < n {
			t.Fatalf("n=%d: pitch %d < n", n, g.Pitch)
		}
		// Constant-factor blowup: Σ 1/log² gives pitch ≤ ~4n.
		if g.Pitch > 4*n {
			t.Fatalf("n=%d: pitch %d > 4n — gapping blowup too large", n, g.Pitch)
		}
	}
}

func TestGapBItoRM(t *testing.T) {
	for _, n := range []int64{2, 8, 32, 64} {
		m := newMachine(8)
		bi := AllocBI(m.Space, n, 1)
		dst := AllocRM(m.Space, n, n, 1)
		for i := int64(0); i < n; i++ {
			for j := int64(0); j < n; j++ {
				bi.Set(m.Space, i, j, i*n+j+1)
			}
		}
		run(m, GapBItoRM(bi, dst, NewGapLayout(n)), sched.NewPWS())
		checkEqualRMBI(t, m, dst, bi)
	}
}

func TestBIRMforFFT(t *testing.T) {
	for _, n := range []int64{1, 2, 4, 8, 16, 64} {
		m := newMachine(8)
		bi := AllocBI(m.Space, n, 1)
		dst := AllocRM(m.Space, n, n, 1)
		for i := int64(0); i < n; i++ {
			for j := int64(0); j < n; j++ {
				bi.Set(m.Space, i, j, i*n+j+7)
			}
		}
		run(m, BIRMforFFT(bi, dst), sched.NewPWS())
		checkEqualRMBI(t, m, dst, bi)
	}
}

func TestGappingReducesWriteSharing(t *testing.T) {
	// EXP07 in miniature: the gapped conversion should incur fewer block
	// misses than the direct conversion at equal p, n.
	n := int64(64)
	direct := func() core.Result {
		m := newMachine(8)
		bi := AllocBI(m.Space, n, 1)
		dst := AllocRM(m.Space, n, n, 1)
		fillSeq(m, View{Base: bi.Base, Rows: n, Cols: n, Elem: 1, Layout: BI})
		return run(m, DirectBItoRM(bi, dst), sched.NewPWS())
	}()
	gapped := func() core.Result {
		m := newMachine(8)
		bi := AllocBI(m.Space, n, 1)
		dst := AllocRM(m.Space, n, n, 1)
		fillSeq(m, View{Base: bi.Base, Rows: n, Cols: n, Elem: 1, Layout: BI})
		return run(m, GapBItoRM(bi, dst, NewGapLayout(n)), sched.NewPWS())
	}()
	// The gapped version does ~2× the work (extra compress pass) yet its
	// *write-sharing* invalidations on the first pass should be lower.
	t.Logf("direct: block=%d upgrade=%d; gapped: block=%d upgrade=%d",
		direct.Total.BlockMisses, direct.Total.UpgradeMisses,
		gapped.Total.BlockMisses, gapped.Total.UpgradeMisses)
}
