package spms

import (
	"slices"
	"testing"

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
					pool := rt.NewPoolLayout(p, layout)
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
