package gather

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

// fillPartialPerm makes idx a seeded partial permutation of [0, n) with
// every 7th slot negative (the sentinel case).
func fillPartialPerm(idx fj.I64, seed uint64) {
	n := idx.Len()
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	s := seed*2654435761 + 1
	for i := n - 1; i > 0; i-- {
		s = s*6364136223846793005 + 1442695040888963407
		j := int64(s>>33) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := int64(0); i < n; i++ {
		if i%7 == 3 {
			idx.Store(i, -1)
		} else {
			idx.Store(i, perm[i])
		}
	}
}

func gatherRef(idx, vals fj.I64, sentinel int64) []int64 {
	want := make([]int64, idx.Len())
	for i := range want {
		if k := idx.Load(int64(i)); k >= 0 {
			want[i] = vals.Load(k)
		} else {
			want[i] = sentinel
		}
	}
	return want
}

func TestFJGatherReal(t *testing.T) {
	const n = 4096
	env := fj.NewRealEnv()
	idx, vals := env.I64(n), env.I64(n)
	fillPartialPerm(idx, 11)
	for i := int64(0); i < n; i++ {
		vals.Store(i, 3*i+1)
	}
	want := gatherRef(idx, vals, -7)
	for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
		for _, p := range []int{1, 4} {
			out := env.I64(n)
			pool := rt.NewPoolLayout(p, rt.Random, layout)
			t.Cleanup(pool.Close)
			fj.RunReal(pool, func(c *fj.Ctx) { FJGather(c, idx, vals, out, -7) })
			for i := range want {
				if out.Load(int64(i)) != want[i] {
					t.Fatalf("layout=%v p=%d: out[%d] = %d, want %d", layout, p, i, out.Load(int64(i)), want[i])
				}
			}
		}
	}
}

func TestFJGatherSim(t *testing.T) {
	const n = 256
	m := machine.New(machine.Default(4))
	env := fj.NewSimEnv(m)
	idx, vals, out := env.I64(n), env.I64(n), env.I64(n)
	fillPartialPerm(idx, 13)
	for i := int64(0); i < n; i++ {
		vals.Store(i, 5*i+2)
	}
	want := gatherRef(idx, vals, -7)
	fj.RunSim(m, sched.NewPWS(), core.Options{}, 3*n, "gather", func(c *fj.Ctx) {
		FJGather(c, idx, vals, out, -7)
	})
	for i := range want {
		if out.Load(int64(i)) != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out.Load(int64(i)), want[i])
		}
	}
}
