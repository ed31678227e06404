package scan

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

func runMSum(t *testing.T, p int, n int64, s core.Scheduler, opts core.Options) (core.Result, int64) {
	t.Helper()
	cfg := machine.Default(p)
	m := machine.New(cfg)
	a := mem.NewArray(m.Space, n)
	for i := int64(0); i < n; i++ {
		a.Set(i, i+1)
	}
	out := m.Space.Alloc(1)
	tree := mem.NewArray(m.Space, core.UpTreeLen(n))
	eng := core.NewEngine(m, s, opts)
	res := eng.Run(MSum(a, out, tree))
	return res, m.Space.Load(out)
}

func TestMSumSerial(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 7, 64, 1000} {
		_, got := runMSum(t, 1, n, sched.NewPWS(), core.Options{})
		want := n * (n + 1) / 2
		if got != want {
			t.Errorf("n=%d: sum = %d, want %d", n, got, want)
		}
	}
}

func TestMSumParallelPWS(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		for _, n := range []int64{16, 255, 1024, 4096} {
			res, got := runMSum(t, p, n, sched.NewPWS(), core.Options{})
			want := n * (n + 1) / 2
			if got != want {
				t.Errorf("p=%d n=%d: sum = %d, want %d", p, n, got, want)
			}
			if n >= int64(4*p) && res.Steals == 0 && p > 1 {
				t.Errorf("p=%d n=%d: expected steals under PWS, got none", p, n)
			}
		}
	}
}

func TestMSumParallelRWS(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		for _, n := range []int64{16, 255, 1024} {
			_, got := runMSum(t, p, n, sched.NewRWS(42), core.Options{})
			want := n * (n + 1) / 2
			if got != want {
				t.Errorf("p=%d n=%d: sum = %d, want %d", p, n, got, want)
			}
		}
	}
}

func TestMSumDeterministic(t *testing.T) {
	r1, _ := runMSum(t, 8, 1024, sched.NewPWS(), core.Options{})
	r2, _ := runMSum(t, 8, 1024, sched.NewPWS(), core.Options{})
	if r1.Makespan != r2.Makespan || r1.Steals != r2.Steals ||
		r1.Total.ColdMisses != r2.Total.ColdMisses ||
		r1.BlockMisses() != r2.BlockMisses() {
		t.Errorf("PWS runs differ:\n%v\n%v", r1, r2)
	}
}

func TestMSumUpTreeLayout(t *testing.T) {
	p, n := 4, int64(64)
	cfg := machine.Default(p)
	m := machine.New(cfg)
	a := mem.NewArray(m.Space, n)
	for i := int64(0); i < n; i++ {
		a.Set(i, 1)
	}
	out := m.Space.Alloc(1)
	tree := mem.NewArray(m.Space, core.UpTreeLen(n))
	eng := core.NewEngine(m, sched.NewPWS(), core.Options{})
	eng.Run(MSum(a, out, tree))
	// The root of [0,64) sits at in-order slot 2*32-1 = 63 and holds 64.
	if got := tree.Get(63); got != 64 {
		t.Errorf("root up-tree slot = %d, want 64", got)
	}
	// Leaf i sits at slot 2i and holds 1.
	for i := int64(0); i < n; i++ {
		if got := tree.Get(2 * i); got != 1 {
			t.Errorf("leaf slot %d = %d, want 1", 2*i, got)
		}
	}
}

func TestMSumStealsPerPriority(t *testing.T) {
	// Observation 4.3: at most p−1 tasks of any priority are stolen.
	for _, p := range []int{2, 4, 8, 16} {
		res, _ := runMSum(t, p, 4096, sched.NewPWS(), core.Options{})
		if max := res.MaxStealsPerPrio(); max > int64(p-1) {
			t.Errorf("p=%d: %d steals at one priority, want ≤ %d\n%s",
				p, max, p-1, res.PrioHistogram())
		}
	}
}

func TestMSumStealAttemptBound(t *testing.T) {
	// Corollary 4.1: total steal attempts ≤ 2·p·D′.
	for _, p := range []int{2, 4, 8} {
		res, _ := runMSum(t, p, 2048, sched.NewPWS(), core.Options{})
		bound := 2 * int64(p) * int64(res.DistinctPrios)
		if res.StealAttempts > bound {
			t.Errorf("p=%d: %d attempts, want ≤ %d", p, res.StealAttempts, bound)
		}
	}
}

func TestAdd(t *testing.T) {
	p, n := 4, int64(300)
	m := machine.New(machine.Default(p))
	a := mem.NewArray(m.Space, n)
	b := mem.NewArray(m.Space, n)
	out := mem.NewArray(m.Space, n)
	for i := int64(0); i < n; i++ {
		a.Set(i, i)
		b.Set(i, 10*i)
	}
	eng := core.NewEngine(m, sched.NewPWS(), core.Options{})
	eng.Run(Add(a, b, out))
	for i := int64(0); i < n; i++ {
		if got := out.Get(i); got != 11*i {
			t.Fatalf("out[%d] = %d, want %d", i, got, 11*i)
		}
	}
}

func TestPrefixSums(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		for _, n := range []int64{1, 2, 5, 64, 257, 1024} {
			m := machine.New(machine.Default(p))
			a := mem.NewArray(m.Space, n)
			out := mem.NewArray(m.Space, n)
			tree := mem.NewArray(m.Space, core.UpTreeLen(n))
			scratch := m.Space.Alloc(1)
			for i := int64(0); i < n; i++ {
				a.Set(i, i%7+1)
			}
			eng := core.NewEngine(m, sched.NewPWS(), core.Options{})
			eng.Run(PrefixSums(a, out, tree, scratch))
			var want int64
			for i := int64(0); i < n; i++ {
				want += i%7 + 1
				if got := out.Get(i); got != want {
					t.Fatalf("p=%d n=%d: out[%d] = %d, want %d", p, n, i, got, want)
				}
			}
		}
	}
}

func TestMSumPadded(t *testing.T) {
	res, got := runMSum(t, 8, 1024, sched.NewPWS(), core.Options{Padded: true})
	if want := int64(1024 * 1025 / 2); got != want {
		t.Fatalf("padded sum = %d, want %d", got, want)
	}
	if res.StackHighWater == 0 {
		t.Error("padded run should use execution stack")
	}
}
