// Package sortx provides the Type-2 HBP merge sort the paper's list-ranking
// and connected-components algorithms consume, and the repo serves as its
// sort (`sort` and `sortx` on /invoke).
//
// The paper's own sorting subroutine is SPMS [12] (Cole–Ramachandran,
// ICALP 2010), implemented for the simulator in internal/algos/spms.  This
// package is a merge sort with a parallel divide-and-conquer merge —
// recursive halves are sorted into fresh buffers (keeping the computation
// limited access: every address is written exactly once per buffer) and
// merged by merge-path splitting.  W(n) = O(n log n) as for SPMS, but the
// critical path is O(log³ n) instead of SPMS's O(log n · log log n), and
// the serial cache complexity carries a log₂(n/M) factor instead of
// log_M n.  That structural gap is a measurement: EXP15 (internal/bench)
// fits both kernels' depth forms and shows spms below sortx at every common
// size; the sim catalog registers this package as "Sort (HBP-MS)".  On
// hardware the order is the other way round: sortx beat spms at every size
// measured, which is why sortx is the served sort.
//
// Records are fixed-width runs of W words sorted by their first word
// (a signed int64 key); payload words ride along.  Sorting records rather
// than bare keys is what the list-ranking gathers need.
package sortx

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
)

// Recs is a view of N fixed-width records of W words each; the sort key is
// word 0 of each record.
type Recs struct {
	Base mem.Addr
	N    int64
	W    int64
}

// NewRecs allocates an n-record array of w-word records.
func NewRecs(sp *mem.Space, n, w int64) Recs {
	return Recs{Base: sp.Alloc(n * w), N: n, W: w}
}

// Slice returns records [lo, hi).
func (r Recs) Slice(lo, hi int64) Recs {
	if lo < 0 || hi < lo || hi > r.N {
		panic(fmt.Sprintf("sortx: slice [%d,%d) out of [0,%d)", lo, hi, r.N))
	}
	return Recs{Base: r.Base + lo*r.W, N: hi - lo, W: r.W}
}

// Addr returns the address of word w of record i.
func (r Recs) Addr(i, w int64) mem.Addr { return r.Base + i*r.W + w }

// Key reads the key of record i through the cache simulation.
func (r Recs) Key(c *core.Ctx, i int64) int64 { return c.R(r.Addr(i, 0)) }

// Get reads record i directly (no simulation), for tests.
func (r Recs) Get(sp *mem.Space, i int64) []int64 {
	out := make([]int64, r.W)
	for w := int64(0); w < r.W; w++ {
		out[w] = sp.Load(r.Addr(i, w))
	}
	return out
}

// Set writes record i directly (no simulation), for test setup.
func (r Recs) Set(sp *mem.Space, i int64, rec ...int64) {
	if int64(len(rec)) != r.W {
		panic("sortx: record width mismatch")
	}
	for w, v := range rec {
		sp.Store(r.Addr(i, int64(w)), v)
	}
}

// Sort builds the HBP computation sorting src into dst (equal shape).
// src is not modified; every word of dst and of the internal buffers is
// written exactly once.
func Sort(src, dst Recs) *core.Node {
	if src.N != dst.N || src.W != dst.W {
		panic("sortx: Sort shape mismatch")
	}
	return sortNode(src, dst)
}

func sortNode(src, dst Recs) *core.Node {
	n, w := src.N, src.W
	if n <= 2 {
		return core.Leaf(2*n*w+2, func(c *core.Ctx) {
			if n == 0 {
				return
			}
			if n == 1 {
				copyRec(c, src, 0, dst, 0)
				return
			}
			if src.Key(c, 0) <= src.Key(c, 1) {
				copyRec(c, src, 0, dst, 0)
				copyRec(c, src, 1, dst, 1)
			} else {
				copyRec(c, src, 1, dst, 0)
				copyRec(c, src, 0, dst, 1)
			}
		})
	}
	h := n / 2
	var buf Recs
	return &core.Node{
		Size:  2 * n * w,
		Label: "sort",
		Seq: func(c *core.Ctx, stage int) *core.Node {
			switch stage {
			case 0:
				buf = Recs{Base: c.Alloc(n * w), N: n, W: w}
				return core.Spread([]*core.Node{
					sortNode(src.Slice(0, h), buf.Slice(0, h)),
					sortNode(src.Slice(h, n), buf.Slice(h, n)),
				})
			case 1:
				return mergeNode(buf.Slice(0, h), buf.Slice(h, n), dst)
			default:
				return nil
			}
		},
	}
}

// mergeNode merges sorted runs x and y into out (out.N = x.N + y.N) by
// median splitting: the head finds the split of the output midpoint with a
// dual binary search, then the two halves merge in parallel.  The merge is
// stable (ties take from x first).
func mergeNode(x, y, out Recs) *core.Node {
	n := out.N
	if n <= 2 {
		return core.Leaf(2*n*out.W+4, func(c *core.Ctx) {
			i, j := int64(0), int64(0)
			for k := int64(0); k < n; k++ {
				takeX := j >= y.N || (i < x.N && x.Key(c, i) <= y.Key(c, j))
				if takeX {
					copyRec(c, x, i, out, k)
					i++
				} else {
					copyRec(c, y, j, out, k)
					j++
				}
			}
		})
	}
	return &core.Node{
		Size:  2 * n * out.W,
		Label: "merge",
		Fork: func(c *core.Ctx) (*core.Node, *core.Node) {
			k := n / 2
			i := splitSearch(c, x, y, k)
			j := k - i
			return mergeNode(x.Slice(0, i), y.Slice(0, j), out.Slice(0, k)),
				mergeNode(x.Slice(i, x.N), y.Slice(j, y.N), out.Slice(k, n))
		},
	}
}

// splitSearch finds i ∈ [max(0,k−|y|), min(k,|x|)] with
// x[i−1] ≤ y[k−i] and y[k−i−1] < x[i], so that x[0:i] ∪ y[0:k−i] are the k
// smallest records (stably).  O(log) simulated reads.
func splitSearch(c *core.Ctx, x, y Recs, k int64) int64 {
	lo := k - y.N
	if lo < 0 {
		lo = 0
	}
	hi := k
	if hi > x.N {
		hi = x.N
	}
	for lo < hi {
		i := (lo + hi) / 2
		// If the last y taken sorts strictly before x[i], i may shrink;
		// otherwise stability forces taking more from x.
		if y.Key(c, k-i-1) < x.Key(c, i) {
			hi = i
		} else {
			lo = i + 1
		}
	}
	return lo
}

func copyRec(c *core.Ctx, src Recs, i int64, dst Recs, j int64) {
	for w := int64(0); w < src.W; w++ {
		c.W(dst.Addr(j, w), c.R(src.Addr(i, w)))
	}
}

// IsSorted checks key order directly (no simulation), for tests.
func IsSorted(sp *mem.Space, r Recs) bool {
	for i := int64(1); i < r.N; i++ {
		if sp.Load(r.Addr(i-1, 0)) > sp.Load(r.Addr(i, 0)) {
			return false
		}
	}
	return true
}
