package listrank

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

// fillChain stores a seeded random-permutation linked list in succ and
// returns the expected rank of every node (links to the tail).
func fillChain(succ fj.I64, seed uint64) []int64 {
	n := succ.Len()
	order := make([]int64, n)
	for i := range order {
		order[i] = int64(i)
	}
	s := seed*2654435761 + 1
	for i := n - 1; i > 0; i-- {
		s = s*6364136223846793005 + 1442695040888963407
		j := int64(s>>33) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	want := make([]int64, n)
	for k := int64(0); k < n; k++ {
		if k == n-1 {
			succ.Store(order[k], -1)
		} else {
			succ.Store(order[k], order[k+1])
		}
		want[order[k]] = n - 1 - k
	}
	return want
}

func TestFJRankReal(t *testing.T) {
	for _, n := range []int64{1, 2, 255, 4096} {
		env := fj.NewRealEnv()
		succ, rank := env.I64(n), env.I64(n)
		want := fillChain(succ, uint64(n))
		for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
			for _, p := range []int{1, 4} {
				pool := rt.NewPoolLayout(p, rt.Random, layout)
				t.Cleanup(pool.Close)
				fj.RunReal(pool, func(c *fj.Ctx) { FJRank(c, succ, rank) })
				for i := range want {
					if rank.Load(int64(i)) != want[i] {
						t.Fatalf("n=%d layout=%v p=%d: rank[%d] = %d, want %d",
							n, layout, p, i, rank.Load(int64(i)), want[i])
					}
				}
			}
		}
	}
}

func TestFJRankSim(t *testing.T) {
	const n = 300
	m := machine.New(machine.Default(4))
	env := fj.NewSimEnv(m)
	succ, rank := env.I64(n), env.I64(n)
	want := fillChain(succ, 21)
	fj.RunSim(m, sched.NewPWS(), core.Options{}, 2*n, "listrank", func(c *fj.Ctx) {
		FJRank(c, succ, rank)
	})
	for i := range want {
		if rank.Load(int64(i)) != want[i] {
			t.Fatalf("rank[%d] = %d, want %d", i, rank.Load(int64(i)), want[i])
		}
	}
}
