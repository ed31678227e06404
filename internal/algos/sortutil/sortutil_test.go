package sortutil

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fj"
	"repro/internal/rt"
)

// TestSplitBalancesEqualRange checks Split's rank contract directly: on
// all-equal runs the k smallest must come from a first (stability) with the
// equal range divided by position, never collapsing to one side.
func TestSplitBalancesEqualRange(t *testing.T) {
	env := fj.NewRealEnv()
	a, b := env.I64(8), env.I64(8)
	for i := int64(0); i < 8; i++ {
		a.Store(i, 5)
		b.Store(i, 5)
	}
	pool := rt.NewPoolLayout(1, rt.LayoutPadded)
	t.Cleanup(pool.Close)
	fj.RunReal(pool, func(c *fj.Ctx) {
		for k := int64(0); k <= 16; k++ {
			want := min(k, int64(8)) // stable: take everything available from a first
			if got := Split(c, a, b, k); got != want {
				t.Errorf("Split(equal, k=%d) = %d, want %d", k, got, want)
			}
		}
	})
}

// TestSplitAgreesWithMergeSerial cross-checks the two halves of the shared
// contract on uneven duplicate-heavy runs: for every output rank k, the
// prefix Split selects must equal the first k elements MergeSerial emits.
func TestSplitAgreesWithMergeSerial(t *testing.T) {
	env := fj.NewRealEnv()
	a, b := env.I64(6), env.I64(9)
	for i, x := range []int64{1, 2, 2, 2, 5, 7} {
		a.Store(int64(i), x)
	}
	for i, x := range []int64{0, 2, 2, 4, 5, 5, 5, 7, 9} {
		b.Store(int64(i), x)
	}
	out := env.I64(15)
	pool := rt.NewPoolLayout(1, rt.LayoutPadded)
	t.Cleanup(pool.Close)
	fj.RunReal(pool, func(c *fj.Ctx) {
		MergeSerial(c, a, b, out)
		if !slices.IsSorted(out.Raw()) {
			t.Fatalf("MergeSerial output not sorted: %v", out.Raw())
		}
		for k := int64(0); k <= 15; k++ {
			i := Split(c, a, b, k)
			j := k - i
			// a[0:i] ∪ b[0:j] must be exactly the stable k-prefix: same
			// multiset as out[0:k], with every selected element ≤ every
			// unselected one (ties resolved a-first by construction).
			got := append(append([]int64{}, a.Raw()[:i]...), b.Raw()[:j]...)
			slices.Sort(got)
			want := append([]int64{}, out.Raw()[:k]...)
			if !slices.Equal(got, want) {
				t.Errorf("k=%d: split prefix %v != merge prefix %v", k, got, want)
			}
		}
	})
}

// TestTieBreakConventionsAgree pins the two-way and k-way serial merges to
// one tie-breaking convention: on duplicate-heavy runs, MergeK over [a, b]
// must emit the byte-identical sequence MergeSerial(a, b) does (ties from
// the earliest run first, within a run in position order).  The sort
// kernels compose both paths, so a drift here silently reorders equal keys
// between lowerings.
func TestTieBreakConventionsAgree(t *testing.T) {
	cases := [][2][]int64{
		{{1, 2, 2, 2, 5, 7}, {0, 2, 2, 4, 5, 5, 5, 7, 9}},
		{{5, 5, 5, 5}, {5, 5, 5}},
		{{}, {3, 3, 3}},
		{{1, 1, 2}, {}},
		{{0, 0, 1, 1, 2, 2}, {0, 1, 1, 2}},
	}
	env := fj.NewRealEnv()
	pool := rt.NewPoolLayout(1, rt.LayoutPadded)
	t.Cleanup(pool.Close)
	fj.RunReal(pool, func(c *fj.Ctx) {
		for ci, tc := range cases {
			a, b := env.I64(int64(len(tc[0]))), env.I64(int64(len(tc[1])))
			for i, x := range tc[0] {
				a.Store(int64(i), x)
			}
			for i, x := range tc[1] {
				b.Store(int64(i), x)
			}
			total := a.Len() + b.Len()
			two, kway := env.I64(total), env.I64(total)
			MergeSerial(c, a, b, two)
			MergeK(c, []fj.I64{a, b}, kway)
			if !slices.Equal(two.Raw(), kway.Raw()) {
				t.Errorf("case %d: MergeK %v != MergeSerial %v", ci, kway.Raw(), two.Raw())
			}
		}
	})
}

// TestMergeKManyRunsStable drives MergeK across more than two runs with
// empty runs interleaved: the output must be sorted, and equal keys must
// surface run-by-run in run-index order (the k-way extension of the a-first
// convention).
func TestMergeKManyRunsStable(t *testing.T) {
	env := fj.NewRealEnv()
	// Tag each value's origin in the low bits: key = value·8 + run.  Runs
	// stay individually sorted, and after merging, equal keys must carry
	// ascending run tags.
	raw := [][]int64{{0, 1, 1, 2}, {}, {0, 1, 2, 2}, {1}, {}, {0, 0, 1}}
	runs := make([]fj.I64, len(raw))
	var total int64
	for r, vals := range raw {
		runs[r] = env.I64(int64(len(vals)))
		for i, x := range vals {
			runs[r].Store(int64(i), x*8+int64(r))
		}
		total += int64(len(vals))
	}
	out := env.I64(total)
	pool := rt.NewPoolLayout(1, rt.LayoutPadded)
	t.Cleanup(pool.Close)
	fj.RunReal(pool, func(c *fj.Ctx) { MergeK(c, runs, out) })
	got := out.Raw()
	for i := 1; i < len(got); i++ {
		key, prev := got[i]/8, got[i-1]/8
		if key < prev {
			t.Fatalf("output not sorted at %d: %v", i, got)
		}
		if key == prev && got[i]%8 < got[i-1]%8 {
			t.Errorf("equal keys out of run order at %d: run %d before run %d", i, got[i-1]%8, got[i]%8)
		}
	}
}

// TestBoundsUnits pins LowerBound/UpperBound on a duplicate-heavy run: the
// half-open equal range [LowerBound, UpperBound) must bracket exactly the
// occurrences of the probe value.
func TestBoundsUnits(t *testing.T) {
	env := fj.NewRealEnv()
	v := env.I64(8)
	for i, x := range []int64{1, 3, 3, 3, 5, 5, 8, 9} {
		v.Store(int64(i), x)
	}
	pool := rt.NewPoolLayout(1, rt.LayoutPadded)
	t.Cleanup(pool.Close)
	fj.RunReal(pool, func(c *fj.Ctx) {
		for _, tc := range []struct{ x, lo, hi int64 }{
			{0, 0, 0}, {1, 0, 1}, {2, 1, 1}, {3, 1, 4}, {4, 4, 4},
			{5, 4, 6}, {8, 6, 7}, {9, 7, 8}, {10, 8, 8},
		} {
			if got := LowerBound(c, v, tc.x); got != tc.lo {
				t.Errorf("LowerBound(%d) = %d, want %d", tc.x, got, tc.lo)
			}
			if got := UpperBound(c, v, tc.x); got != tc.hi {
				t.Errorf("UpperBound(%d) = %d, want %d", tc.x, got, tc.hi)
			}
		}
	})
}

// TestSortLeafBothBackings pins the leaf sort on a native slice (real
// backing) — the sim path is exercised end to end by the kernels' tests.
// TestRadixSortI64 checks the real leaf radix against slices.Sort across
// the shapes that stress its machinery: random signed keys (every digit
// live), a narrow range (most digit passes skipped), all-equal keys (every
// pass skipped, output untouched in place), extreme values (the sign-bit
// flip), lengths straddling the pdqsort/radix switch, and the digit
// selection itself — keys that differ in exactly one bit (each of the 64,
// so each byte is the lone discriminating digit eight times over, and bit
// 63 is the sign-bit-only case), and in the top byte only.
func TestRadixSortI64(t *testing.T) {
	gen := func(n int, f func(i uint64) int64) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = f(uint64(i))
		}
		return s
	}
	lcg := func(seed uint64) func(uint64) int64 {
		return func(i uint64) int64 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return int64(seed)
		}
	}
	cases := map[string][]int64{
		"empty":     nil,
		"single":    {42},
		"random":    gen(4096, lcg(1)),
		"narrow":    gen(4096, func(i uint64) int64 { return int64(i*2654435761) % 100 }),
		"allequal":  gen(1024, func(uint64) int64 { return -7 }),
		"extremes":  {0, -1, 1, -1 << 63, 1<<63 - 1, 0, -1 << 63, 1<<63 - 1},
		"atSwitch":  gen(radixMinLen, lcg(2)),
		"reversed":  gen(2048, func(i uint64) int64 { return 2048 - int64(i) }),
		"negatives": gen(512, func(i uint64) int64 { return -int64(i * i) }),
	}
	const base = 0x0123456789ABCDEF // every byte nonzero, so a skipped digit is not a zero digit
	for bit := 0; bit < 64; bit++ {
		cases[fmt.Sprintf("onebit%02d", bit)] = gen(300, func(i uint64) int64 {
			return base ^ int64(i*2654435761>>13&1)<<bit
		})
	}
	cases["topbyte"] = gen(1000, func(i uint64) int64 { return base&(1<<56-1) | int64(i*2654435761>>7)<<56 })
	for name, in := range cases {
		got := slices.Clone(in)
		want := slices.Clone(in)
		radixSortI64(got, make([]int64, len(got)))
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: radixSortI64 disagrees with slices.Sort", name)
		}
	}
}

func TestSortLeafBothBackings(t *testing.T) {
	env := fj.NewRealEnv()
	v := env.I64(9)
	for i, x := range []int64{5, 1, 4, 1, 5, 9, 2, 6, 5} {
		v.Store(int64(i), x)
	}
	pool := rt.NewPoolLayout(1, rt.LayoutPadded)
	t.Cleanup(pool.Close)
	fj.RunReal(pool, func(c *fj.Ctx) { SortLeaf(c, v) })
	if !slices.IsSorted(v.Raw()) {
		t.Fatalf("SortLeaf output not sorted: %v", v.Raw())
	}
}
