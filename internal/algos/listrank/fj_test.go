package listrank

import (
	"fmt"
	"math/bits"
	"slices"
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
				pool := rt.NewPoolLayout(p, layout)
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

// edgeOrders are the list shapes FJRank's edge-case tests rank, each given
// as the order its n nodes are visited in from head to tail, for ruler
// spacing g.
func edgeOrders(n, g int64) map[string][]int64 {
	seq := func(f func(k int64) int64) []int64 {
		o := make([]int64, n)
		for k := range o {
			o[k] = f(int64(k))
		}
		return o
	}
	shuffled := func(seed uint64) []int64 {
		o := make([]int64, n)
		for v, r := range fillChain(fj.WrapI64(make([]int64, n)), seed) {
			o[n-1-r] = int64(v)
		}
		return o
	}
	headOn, headOff, tailOn := shuffled(3), shuffled(4), shuffled(5)
	swap := func(o []int64, k int64, v int64) { // move node v to position k
		for j := range o {
			if o[j] == v {
				o[j], o[k] = o[k], o[j]
				return
			}
		}
	}
	swap(headOn, 0, 0)
	if n > 1 {
		swap(headOff, 0, 1)
	}
	swap(tailOn, n-1, ((n-1)/g)*g)
	// Every ruler last: the non-rulers first, in one sublist from the head.
	bunched := make([]int64, 0, n)
	for _, ruler := range []bool{false, true} {
		for v := range n {
			if (v%g == 0) == ruler {
				bunched = append(bunched, v)
			}
		}
	}
	return map[string][]int64{
		"in-order":       seq(func(k int64) int64 { return k }),
		"reversed":       seq(func(k int64) int64 { return n - 1 - k }),
		"rotated":        seq(func(k int64) int64 { return (k + 1) % n }),
		"head-on-ruler":  headOn,
		"head-off-ruler": headOff,
		"tail-on-ruler":  tailOn,
		"rulers-last":    bunched,
		"random":         shuffled(6),
	}
}

// edgeSizes are the sizes the edge-case tests rank at ruler spacing g:
// around one sublist, and several with a remainder.
func edgeSizes(g int64) []int64 { return []int64{1, 2, g - 1, g, g + 1, 8*g + 5} }

// serialHead is the node no successor points at.
func serialHead(succ []int64) int64 {
	pred := make([]bool, len(succ))
	for _, s := range succ {
		if s >= 0 {
			pred[s] = true
		}
	}
	for i, p := range pred {
		if !p {
			return int64(i)
		}
	}
	return -1
}

// serialRank ranks succ by one walk from the head.
func serialRank(succ []int64) []int64 {
	rank := make([]int64, len(succ))
	r := int64(len(succ)) - 1
	for at := serialHead(succ); at >= 0; at = succ[at] {
		rank[at] = r
		r--
	}
	return rank
}

// placeOrder stores the list visiting order in succ and returns its ranks by
// serialRank.
func placeOrder(succ fj.I64, order []int64) []int64 {
	w := make([]int64, len(order))
	for k, v := range order {
		w[v] = -1
		if k+1 < len(order) {
			w[v] = order[k+1]
		}
	}
	for i, s := range w {
		succ.Store(int64(i), s)
	}
	return serialRank(w)
}

// TestFJRankEdgesReal ranks every edge shape at every edge size on rt at
// p ∈ {1, 2, 4}, against a serial walk.
func TestFJRankEdgesReal(t *testing.T) {
	pools := map[int]*rt.Pool{}
	for _, p := range []int{1, 2, 4} {
		pools[p] = rt.NewPool(p, rt.Random)
		t.Cleanup(pools[p].Close)
	}
	g := int64(FJRankGrainReal)
	for _, n := range edgeSizes(g) {
		for name, order := range edgeOrders(n, g) {
			for _, p := range []int{1, 2, 4} {
				env := fj.NewRealEnv()
				succ, rank := env.I64(n), env.I64(n)
				want := placeOrder(succ, order)
				fj.RunReal(pools[p], func(c *fj.Ctx) { FJRank(c, succ, rank) })
				checkRanks(t, fmt.Sprintf("n=%d %s p=%d", n, name, p), rank.Words(), want)
			}
		}
	}
}

// TestFJRankEdgesSim ranks every edge shape at every edge size on the
// simulator at p ∈ {1, 4} under PWS and RWS, against a serial walk.
func TestFJRankEdgesSim(t *testing.T) {
	g := int64(FJRankGrainSim)
	for _, n := range edgeSizes(g) {
		for name, order := range edgeOrders(n, g) {
			for _, p := range []int{1, 4} {
				for _, s := range []core.Scheduler{sched.NewPWS(), sched.NewRWS(n)} {
					m := machine.New(machine.Default(p))
					env := fj.NewSimEnv(m)
					succ, rank := env.I64(n), env.I64(n)
					want := placeOrder(succ, order)
					fj.RunSim(m, s, core.Options{}, n, "listrank", func(c *fj.Ctx) { FJRank(c, succ, rank) })
					checkRanks(t, fmt.Sprintf("n=%d %s p=%d %T", n, name, p, s), rank.Words(), want)
				}
			}
		}
	}
}

// TestFJRankWalkRaw holds walkRaw's interleaved lanes to one walk at a
// time: every rank word and every ruler's (next, length) pair, over the
// whole ruler range and split ones.  FJRank itself seldom hands walkRaw
// more than one ruler at the edge sizes, since ForRange's chunks start at
// one index.
func TestFJRankWalkRaw(t *testing.T) {
	const g = FJRankGrainReal
	shift := int64(bits.TrailingZeros64(g))
	for _, n := range []int64{g + 1, 8*g + 5, 64*g + 5} {
		for name, order := range edgeOrders(n, g) {
			succ := make([]int64, n)
			placeOrder(fj.WrapI64(succ), order)
			head, nb := serialHead(succ), (n+g-1)/g
			rulers := nb
			if head%g != 0 {
				rulers++
			}
			wantRank, wantRul := make([]int64, n), make([]int64, 2*(nb+1))
			for r := range rulers {
				v, off := r*g, int64(0)
				if r == nb {
					v = head
				}
				for {
					wantRank[v] = r<<32 | off
					off++
					if v = succ[v]; v < 0 || v%g == 0 {
						break
					}
				}
				wantRul[2*r], wantRul[2*r+1] = -1, off
				if v >= 0 {
					wantRul[2*r] = v / g
				}
			}
			for _, cut := range []int64{0, 1, rulers / 2} {
				rank, rul := make([]int64, n), make([]int64, 2*(nb+1))
				walkRaw(succ, rank, rul, 0, cut, nb, head, shift)
				walkRaw(succ, rank, rul, cut, rulers, nb, head, shift)
				if !slices.Equal(rank, wantRank) || !slices.Equal(rul, wantRul) {
					t.Fatalf("n=%d %s cut=%d: interleaved walks differ from one walk at a time", n, name, cut)
				}
			}
		}
	}
}
