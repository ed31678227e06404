package spms

import (
	"slices"
	"testing"

	"repro/internal/algos/sortutil"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

// fillDist fills v from one of the key distributions the sort must handle:
// "rand" seeded pseudo-random keys, "equal" a single repeated key, "two" an
// alternating two-valued pattern (the duplicate-heavy shapes that broke the
// pre-fix sortx merge split).
func fillDist(v fj.I64, dist string, seed uint64) {
	s := seed*2654435761 + 1
	for i := int64(0); i < v.Len(); i++ {
		switch dist {
		case "equal":
			v.Store(i, 7)
		case "two":
			s = s*6364136223846793005 + 1442695040888963407
			v.Store(i, int64(s>>33)%2)
		default:
			s = s*6364136223846793005 + 1442695040888963407
			v.Store(i, int64(s>>33)%(1<<30))
		}
	}
}

func sortedRef(v fj.I64) []int64 {
	ref := make([]int64, v.Len())
	for i := range ref {
		ref[i] = v.Load(int64(i))
	}
	slices.Sort(ref)
	return ref
}

func checkSorted(t *testing.T, tag string, data fj.I64, want []int64) {
	t.Helper()
	for i := range want {
		if data.Load(int64(i)) != want[i] {
			t.Fatalf("%s: out[%d] = %d, want %d", tag, i, data.Load(int64(i)), want[i])
		}
	}
}

func TestFJSortRealMatchesSerial(t *testing.T) {
	sizes := []int64{0, 1, 2, FJSortGrainReal - 1, FJSortGrainReal, FJSortGrainReal + 1, 1 << 16}
	for _, dist := range []string{"rand", "equal", "two"} {
		for _, n := range sizes {
			for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
				for _, p := range []int{1, 4} {
					env := fj.NewRealEnv()
					data := env.I64(n)
					fillDist(data, dist, uint64(n)+uint64(p))
					want := sortedRef(data)
					pool := rt.NewPoolLayout(p, rt.Random, layout)
					t.Cleanup(pool.Close)
					fj.RunReal(pool, func(c *fj.Ctx) { FJSort(c, data) })
					checkSorted(t, dist, data, want)
				}
			}
		}
	}
}

func TestFJSortSimMatchesSerial(t *testing.T) {
	for _, dist := range []string{"rand", "equal", "two"} {
		for _, n := range []int64{0, 1, FJSortGrainSim, FJSortGrainSim + 1, 1024} {
			m := machine.New(machine.Default(4))
			env := fj.NewSimEnv(m)
			data := env.I64(n)
			fillDist(data, dist, 99)
			want := sortedRef(data)
			fj.RunSim(m, sched.NewPWS(), core.Options{}, 2*n, "spms", func(c *fj.Ctx) {
				FJSort(c, data)
			})
			checkSorted(t, dist, data, want)
		}
	}
}

// TestDuplicateDepthStaysLogarithmic pins the partition's key-obliviousness:
// positional bucket boundaries must keep the recursion balanced on an
// all-equal input, so the simulated critical path stays far below the
// linear depth a value-based split degenerates to on duplicates.
func TestDuplicateDepthStaysLogarithmic(t *testing.T) {
	const n = 2048
	m := machine.New(machine.Default(4))
	env := fj.NewSimEnv(m)
	data := env.I64(n)
	fillDist(data, "equal", 1)
	res := fj.RunSim(m, sched.NewPWS(), core.Options{}, 2*n, "spms", func(c *fj.Ctx) {
		FJSort(c, data)
	})
	if res.CritPath >= n {
		t.Fatalf("all-equal critical path %d is linear in n=%d — the split is value-based", res.CritPath, n)
	}
}

func TestIsqrt(t *testing.T) {
	for _, tc := range []struct{ n, want int64 }{
		{0, 0}, {1, 1}, {2, 1}, {3, 1}, {4, 2}, {8, 2}, {9, 3},
		{15, 3}, {16, 4}, {1 << 20, 1 << 10}, {1<<20 + 1, 1 << 10},
	} {
		if got := isqrt(tc.n); got != tc.want {
			t.Errorf("isqrt(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestSerialFoldMatchesHeap holds the real backend's pairwise fold to the
// heap pass it stands in for, word for word: run counts on both sides of a
// power of two (so odd counts carry a lone run through a pass, and the pass
// count ⌈log₂ k⌉ takes both parities — the fold aims its ping-pong by it),
// with every third run empty in one variant, on spread and on
// duplicate-flooded keys.
func TestSerialFoldMatchesHeap(t *testing.T) {
	pool := rt.NewPoolLayout(1, rt.Random, rt.LayoutPadded)
	t.Cleanup(pool.Close)
	for _, k := range []int{3, 4, 5, 16, 17, 64, 65} {
		for _, mod := range []int64{2, 1 << 30} {
			for _, holes := range []bool{false, true} {
				env := fj.NewRealEnv()
				runs := make([]fj.I64, k)
				var total int64
				s := uint64(k)*977 + uint64(mod)
				for r := range runs {
					n := int64(r*7%23 + 1)
					if holes && r%3 == 1 {
						n = 0
					}
					keys := make([]int64, n)
					for i := range keys {
						s = s*6364136223846793005 + 1442695040888963407
						keys[i] = int64(s>>33) % mod
					}
					slices.Sort(keys)
					runs[r] = env.I64(n)
					for i, x := range keys {
						runs[r].Store(int64(i), x)
					}
					total += n
				}
				got, want := env.I64(total), env.I64(total)
				fj.RunReal(pool, func(c *fj.Ctx) {
					serialFold(c, runs, got.Raw())
					sortutil.MergeK(c, runs, want)
				})
				if !slices.Equal(got.Raw(), want.Raw()) {
					t.Errorf("k=%d mod=%d holes=%v: fold and heap outputs differ", k, mod, holes)
				}
			}
		}
	}
}
