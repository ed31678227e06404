package listrank

// Unified fork-join source: work-efficient list ranking by sublist walks,
// written once against internal/fj.  Every g-th node (and the head) is a
// ruler; the rulers cut the list into sublists of ~g nodes that are walked
// in parallel, a serial pass along the ~n/g rulers ranks them, and a
// parallel map ranks every node from its ruler.  Four steps:
//
//  1. find the head: n(n−1)/2 minus the sum of the successors (the head is
//     the one index no node points at), summed in per-block partials;
//  2. walk each ruler's sublist to the next ruler or the tail, storing
//     ruler<<32 | offset in rank and the ruler's next ruler and length in
//     an O(n/g) scratch;
//  3. walk the ruler chain from the head, turning each ruler's next into
//     its rank;
//  4. rank[v] = rank of v's ruler − v's offset.
//
// O(n) work (Wyllie's pointer jumping, which this replaced, did ⌈log₂ n⌉
// full passes); the depth is the longest sublist plus the serial pass over
// the rulers, O(g log n + n/g) on a random list.  Each rank word is
// written twice (steps 2 and 4), so the kernel keeps limited access, and
// all parallel writes are disjoint, so the result is deterministic.  Walks
// write rank words scattered over the array, so unlike pointer jumping the
// simulator sees block misses from them; the paper's own LR (Thm 4.1,
// independent-set contraction with gapping), the simulated kernel of
// listrank.go, is what avoids those.  A walk follows successors, so the
// input must be a single list: a cycle that holds no ruler never ends a
// walk, which is why the served kernel validates its payload first.

import "repro/internal/fj"

// FJRankGrainSim and FJRankGrainReal are the ruler spacing g on each
// backend — one sublist walk per g nodes — and the simulator's leaf of the
// node and block maps (hardware splits those on demand, fj.Ctx.ForRange).
// Both are powers of two: a walk tests for a ruler by masking.
const (
	FJRankGrainSim  = 16
	FJRankGrainReal = 64
)

// FJRank ranks the linked list given by succ: succ[i] is the index of i's
// successor, or −1 for the tail.  rank[i] receives the number of links from
// i to the tail (the tail gets 0).  succ is not modified; succ must encode a
// single list of fewer than 2³² nodes.
func FJRank(c *fj.Ctx, succ, rank fj.I64) {
	n := succ.Len()
	if rank.Len() != n {
		panic("listrank: FJRank length mismatch")
	}
	if n >= 1<<32 {
		panic("listrank: FJRank offsets are 32-bit")
	}
	if n == 0 {
		return
	}
	g := c.Grain(FJRankGrainSim, FJRankGrainReal)
	shift, mask := int64(0), g-1
	for 1<<shift < g {
		shift++
	}
	nb := (n + g - 1) >> shift // blocks of g nodes, one ruler each (node b·g)
	// One scratch: step 1's per-block partial sums in [0, nb), then the
	// (next, length) pair of ruler r at 2r, 2r+1 — ruler nb is the head when
	// the head is not already a ruler.
	rul := c.ScratchI64(2 * (nb + 1))

	// 1. The head.
	c.ForRange(0, nb, 1, func(c *fj.Ctx, lo, hi int64) {
		for b := lo; b < hi; b++ {
			i, end, sum := b<<shift, min((b+1)<<shift, n), int64(0)
			if ss := succ.Raw(); ss != nil {
				for _, s := range ss[i:end] {
					if s >= 0 {
						sum += s
					}
				}
			} else {
				for ; i < end; i++ {
					if s := succ.Get(c, i); s >= 0 {
						sum += s
					}
				}
			}
			rul.Set(c, b, sum)
		}
	})
	head := n * (n - 1) / 2
	for b := int64(0); b < nb; b++ {
		head -= rul.Get(c, b)
	}
	rulers, first := nb, head>>shift
	if head&mask != 0 {
		rulers, first = nb+1, nb
	}

	// 2. The sublist walks.
	c.ForRange(0, rulers, 1, func(c *fj.Ctx, lo, hi int64) {
		if ss := succ.Raw(); ss != nil {
			walkRaw(ss, rank.Raw(), rul.Raw(), lo, hi, nb, head, shift)
			return
		}
		for r := lo; r < hi; r++ {
			v := r << shift
			if r == nb {
				v = head
			}
			tag, off := r<<32, int64(1)
			rank.Set(c, v, tag)
			s := succ.Get(c, v)
			for s >= 0 && s&mask != 0 {
				rank.Set(c, s, tag|off)
				off++
				s = succ.Get(c, s)
			}
			rul.Set(c, 2*r, s>>shift)
			rul.Set(c, 2*r+1, off)
		}
	})

	// 3. The ruler chain, serially: next becomes the ruler's rank.
	base := n - 1
	for r := first; r >= 0; {
		next := rul.Get(c, 2*r)
		rul.Set(c, 2*r, base)
		base -= rul.Get(c, 2*r+1)
		r = next
	}

	// 4. Every node from its ruler.
	c.ForRange(0, n, g, func(c *fj.Ctx, lo, hi int64) {
		if rs := rank.Raw(); rs != nil {
			ru := rul.Raw()
			for i, x := range rs[lo:hi] {
				rs[lo+int64(i)] = ru[2*(x>>32)] - x&(1<<32-1)
			}
			return
		}
		for i := lo; i < hi; i++ {
			x := rank.Get(c, i)
			rank.Set(c, i, rul.Get(c, 2*(x>>32))-x&(1<<32-1))
		}
	})
	c.FreeI64(rul)
}

// walkLanes is how many sublists walkRaw walks at once.
const walkLanes = 4

// walkRaw is step 2 on native slices for rulers [lo, hi): the same walks as
// the charged loop, each writing the same words, but walkLanes of them
// interleaved so that their independent successor loads overlap
// (BenchmarkRealListrankFJ, n = 2¹⁵, on a 2-vCPU Xeon: 0.51 → 0.37 ms a run
// with 4 lanes at p = 1; 8 and 16 lanes read no better).
func walkRaw(ss, rs, ru []int64, lo, hi, nb, head, shift int64) {
	mask := int64(1)<<shift - 1
	var r, s, off [walkLanes]int64
	live := 0
	// start puts ruler lo on lane k and reports whether there was one.
	start := func(k int) bool {
		if lo >= hi {
			return false
		}
		v := lo << shift
		if lo == nb {
			v = head
		}
		rs[v] = lo << 32
		r[k], s[k], off[k] = lo, ss[v], 1
		lo++
		return true
	}
	for k := range walkLanes {
		if !start(k) {
			break
		}
		live++
	}
	for live > 0 {
		for k := 0; k < live; k++ {
			if x := s[k]; x >= 0 && x&mask != 0 {
				rs[x] = r[k]<<32 | off[k]
				off[k]++
				s[k] = ss[x]
				continue
			}
			ru[2*r[k]], ru[2*r[k]+1] = s[k]>>shift, off[k] // s = −1 keeps −1
			if !start(k) {
				// Retire lane k: the last live lane takes its place.
				live--
				r[k], s[k], off[k] = r[live], s[live], off[live]
				k--
			}
		}
	}
}
