package sortx

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

func fillKeys(v fj.I64, seed uint64) {
	s := seed*2654435761 + 1
	for i := int64(0); i < v.Len(); i++ {
		s = s*6364136223846793005 + 1442695040888963407
		v.Store(i, int64(s>>33)%(1<<30))
	}
}

// fillDupKeys fills v with a duplicate-heavy distribution: "equal" repeats
// one key, "two" alternates two values pseudo-randomly — the shapes that
// degenerated the pre-fix value-based merge split.
func fillDupKeys(v fj.I64, dist string, seed uint64) {
	s := seed*2654435761 + 1
	for i := int64(0); i < v.Len(); i++ {
		if dist == "equal" {
			v.Store(i, 7)
			continue
		}
		s = s*6364136223846793005 + 1442695040888963407
		v.Store(i, int64(s>>33)%2)
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

func TestFJSortRealMatchesSerial(t *testing.T) {
	for _, n := range []int64{0, 1, FJSortGrainReal - 1, FJSortGrainReal, 1 << 16} {
		for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
			for _, p := range []int{1, 4} {
				env := fj.NewRealEnv()
				data := env.I64(n)
				fillKeys(data, uint64(n)+uint64(p))
				want := sortedRef(data)
				pool := rt.NewPoolLayout(p, rt.Random, layout)
				t.Cleanup(pool.Close)
				fj.RunReal(pool, func(c *fj.Ctx) { FJSort(c, data) })
				for i := range want {
					if data.Load(int64(i)) != want[i] {
						t.Fatalf("n=%d layout=%v p=%d: out[%d] = %d, want %d",
							n, layout, p, i, data.Load(int64(i)), want[i])
					}
				}
			}
		}
	}
}

// TestFJSortDuplicatesReal pins duplicate-heavy inputs on the real backend:
// the merge split must keep producing sorted output when every key (or
// every other key) collides.
func TestFJSortDuplicatesReal(t *testing.T) {
	for _, dist := range []string{"equal", "two"} {
		for _, n := range []int64{FJMergeGrainReal, 1 << 15} {
			for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
				for _, p := range []int{1, 4} {
					env := fj.NewRealEnv()
					data := env.I64(n)
					fillDupKeys(data, dist, uint64(n)+uint64(p))
					want := sortedRef(data)
					pool := rt.NewPoolLayout(p, rt.Random, layout)
					t.Cleanup(pool.Close)
					fj.RunReal(pool, func(c *fj.Ctx) { FJSort(c, data) })
					for i := range want {
						if data.Load(int64(i)) != want[i] {
							t.Fatalf("%s n=%d layout=%v p=%d: out[%d] = %d, want %d",
								dist, n, layout, p, i, data.Load(int64(i)), want[i])
						}
					}
				}
			}
		}
	}
}

// TestFJSortDuplicatesSim runs the same distributions through the sim
// lowering and additionally pins the merge split's rank-balance: with the
// positional dual binary search, an all-equal input must come in well under
// the random-key critical path (it skips all data movement in the ping-pong
// merges), and a two-valued input must not exceed it.  The pre-fix
// value-based split failed both — its duplicate recursions degenerated into
// empty-sided merges, pushing all-equal depth to parity with random keys
// and two-valued depth above it.
func TestFJSortDuplicatesSim(t *testing.T) {
	const n = 4096
	depth := map[string]int64{}
	for _, dist := range []string{"rand", "equal", "two"} {
		m := machine.New(machine.Default(4))
		env := fj.NewSimEnv(m)
		data := env.I64(n)
		if dist == "rand" {
			fillKeys(data, 12345)
		} else {
			fillDupKeys(data, dist, 12345)
		}
		want := sortedRef(data)
		res := fj.RunSim(m, sched.NewPWS(), core.Options{}, 2*n, "sortx", func(c *fj.Ctx) {
			FJSort(c, data)
		})
		depth[dist] = res.CritPath
		for i := range want {
			if data.Load(int64(i)) != want[i] {
				t.Fatalf("%s: out[%d] = %d, want %d", dist, i, data.Load(int64(i)), want[i])
			}
		}
	}
	if depth["equal"] > depth["rand"]*3/4 {
		t.Errorf("all-equal critical path %d not well below random %d — merge split is value-based again",
			depth["equal"], depth["rand"])
	}
	if depth["two"] > depth["rand"] {
		t.Errorf("two-valued critical path %d exceeds random %d — merge split degenerates on duplicates",
			depth["two"], depth["rand"])
	}
}

func TestFJSortSimMatchesSerial(t *testing.T) {
	const n = 1024
	m := machine.New(machine.Default(4))
	env := fj.NewSimEnv(m)
	data := env.I64(n)
	fillKeys(data, 99)
	want := sortedRef(data)
	fj.RunSim(m, sched.NewPWS(), core.Options{}, 2*n, "sortx", func(c *fj.Ctx) {
		FJSort(c, data)
	})
	for i := range want {
		if data.Load(int64(i)) != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, data.Load(int64(i)), want[i])
		}
	}
}
