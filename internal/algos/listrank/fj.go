package listrank

// Unified fork-join source: list ranking by pointer jumping (Wyllie's
// algorithm) written once against internal/fj.  ⌈log₂ n⌉ double-buffered
// rounds each halve every node's distance to the tail: rank and successor
// arrays are read from one generation and written to the next, so all
// parallel writes are disjoint and the result is deterministic.  O(n log n)
// work — the work-inefficient classic the simulated LR kernel's
// independent-set contraction improves on; running both on both backends
// prices that gap.

import "repro/internal/fj"

// FJRankGrainSim is the simulator's leaf length of each round's parallel
// map; hardware splits the maps on demand (fj.Ctx.ForRange).
const FJRankGrainSim = 32

// FJRank ranks the linked list given by succ: succ[i] is the index of i's
// successor, or −1 for the tail.  rank[i] receives the number of links from
// i to the tail (the tail gets 0).  succ is not modified.
func FJRank(c *fj.Ctx, succ, rank fj.I64) {
	n := succ.Len()
	if rank.Len() != n {
		panic("listrank: FJRank length mismatch")
	}
	nxt := c.ScratchI64(n)   // the init map below writes every slot
	rank2 := c.ScratchI64(n) // each round fully writes the next generation
	nxt2 := c.ScratchI64(n)
	c.ForRange(0, n, FJRankGrainSim, func(c *fj.Ctx, lo, hi int64) {
		if ss := succ.Raw(); ss != nil {
			ns, rs := nxt.Raw()[lo:hi], rank.Raw()[lo:hi]
			for i, s := range ss[lo:hi] {
				ns[i] = s
				if s >= 0 {
					rs[i] = 1
				} else {
					rs[i] = 0
				}
			}
			return
		}
		for i := lo; i < hi; i++ {
			s := succ.Get(c, i)
			nxt.Set(c, i, s)
			if s >= 0 {
				rank.Set(c, i, 1)
			} else {
				rank.Set(c, i, 0)
			}
		}
	})
	curR, curS, nextR, nextS := rank, nxt, rank2, nxt2
	rounds := 0
	for span := int64(1); span < n; span *= 2 {
		c.ForRange(0, n, FJRankGrainSim, func(c *fj.Ctx, lo, hi int64) {
			if cr := curR.Raw(); cr != nil {
				cs, nr, ns := curS.Raw(), nextR.Raw()[lo:hi], nextS.Raw()[lo:hi]
				for i, s := range cs[lo:hi] {
					r := cr[lo+int64(i)]
					if s >= 0 {
						r += cr[s]
						s = cs[s]
					}
					nr[i] = r
					ns[i] = s
				}
				return
			}
			for i := lo; i < hi; i++ {
				r, s := curR.Get(c, i), curS.Get(c, i)
				if s >= 0 {
					r += curR.Get(c, s)
					s = curS.Get(c, s)
				}
				nextR.Set(c, i, r)
				nextS.Set(c, i, s)
			}
		})
		curR, curS, nextR, nextS = nextR, nextS, curR, curS
		rounds++
	}
	// The ping-pong leaves the final generation in rank itself after an even
	// number of rounds; after an odd number it sits in the scratch buffer.
	if rounds%2 == 1 {
		c.ForRange(0, n, FJRankGrainSim, func(c *fj.Ctx, lo, hi int64) {
			if cr := curR.Raw(); cr != nil {
				copy(rank.Raw()[lo:hi], cr[lo:hi])
				return
			}
			for i := lo; i < hi; i++ {
				rank.Set(c, i, curR.Get(c, i))
			}
		})
	}
	c.FreeI64(nxt)
	c.FreeI64(rank2)
	c.FreeI64(nxt2)
}
