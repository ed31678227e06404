package sortx

// Unified fork-join source: parallel merge sort over int64 keys written once
// against internal/fj, mirroring the package's simulated Type-2 HBP merge
// sort.  Recursive halves sort into ping-ponged buffers and are merged by
// merge-path splitting: a dual binary search cuts both runs at the output
// midpoint (so equal key ranges divide across both sides by rank), and the
// two independent half-merges recurse in parallel.  Keys are exact int64, so
// the lowerings agree byte-for-byte at any leaf cutoff.
//
// It is not limited access.  Every merge level writes each word of one
// buffer once, and the simulated leaf is an insertion sort that writes a
// word again for each larger key it shifts past, so some word takes 14
// writes at n = 512 and 15 at n = 2048 under the simulator.

import (
	"repro/internal/algos/sortutil"
	"repro/internal/fj"
)

// Per-backend leaf cutoffs: run length at or below which a run goes to the
// serial sort leaf (sortutil.SortLeaf, radix on hardware), and combined
// length at or below which merges are serial (sortutil.MergeSerial).  The
// real sort grain comes from a sweep of {2048, 4096, 8192} on the
// repository's benchmark (kernels_direct, 2¹⁷ keys: p1/pn 3.6/2.0 ms,
// 3.1/1.7, 2.8/1.55; 16 leaf sorts at 8192 — every level of binary merging
// the radix leaf absorbs is a pass saved; CHANGES.md, PR 23).  The real
// merge grain was chosen between 8192 and 16384 on alternating traced
// kernels_direct runs: equal times (p1/pn 3.1–3.5/1.8–2.1 ms at 2¹⁷ keys
// for both), 38 allocations a run at 16384 against 70 at 8192 and 134 at
// the earlier 4096 — each merge split below the grain forks a closure pair.
const (
	FJSortGrainSim   = 16
	FJSortGrainReal  = 8192
	FJMergeGrainSim  = 32
	FJMergeGrainReal = 16384
)

// FJSort sorts data ascending in parallel.
func FJSort(c *fj.Ctx, data fj.I64) {
	n := data.Len()
	if n <= c.Grain(FJSortGrainSim, FJSortGrainReal) {
		sortutil.SortLeaf(c, data)
		return
	}
	// Scratch, not Alloc: every region of buf is sorted or merged into before
	// it is read, so the recycled slab needs no zeroing pass.
	buf := c.ScratchI64(n)
	fjSortRec(c, data, buf, false)
	c.FreeI64(buf)
}

// fjSortRec sorts src; the sorted output lands in buf when toBuf is set and
// in src otherwise.  Children produce their halves in the opposite array,
// which the final merge then ping-pongs back.
func fjSortRec(c *fj.Ctx, src, buf fj.I64, toBuf bool) {
	n := src.Len()
	if n <= c.Grain(FJSortGrainSim, FJSortGrainReal) {
		sortutil.SortLeaf(c, src)
		if toBuf {
			fj.Copy(c, buf, src)
		}
		return
	}
	mid := n / 2
	c.Parallel(
		func(c *fj.Ctx) { fjSortRec(c, src.Slice(0, mid), buf.Slice(0, mid), !toBuf) },
		func(c *fj.Ctx) { fjSortRec(c, src.Slice(mid, n), buf.Slice(mid, n), !toBuf) },
	)
	if toBuf {
		fjMerge(c, src.Slice(0, mid), src.Slice(mid, n), buf)
	} else {
		fjMerge(c, buf.Slice(0, mid), buf.Slice(mid, n), src)
	}
}

// fjMerge merges sorted runs a and b into out by parallel merge-path
// splitting: the output midpoint is located with the shared output-rank
// dual binary search (sortutil.Split) and the two exact output halves merge
// in parallel.  Cutting by output rank divides an equal key range across
// both children; the earlier value-based cut (first b[k] ≥ pivot) pushed a
// pivot's whole equal range into one child, so duplicate-heavy inputs
// degenerated into unbalanced recursions over empty-sided merges.
func fjMerge(c *fj.Ctx, a, b, out fj.I64) {
	m := a.Len() + b.Len()
	if m <= c.Grain(FJMergeGrainSim, FJMergeGrainReal) {
		sortutil.MergeSerial(c, a, b, out)
		return
	}
	k := m / 2
	i := sortutil.Split(c, a, b, k)
	j := k - i
	c.Parallel(
		func(c *fj.Ctx) { fjMerge(c, a.Slice(0, i), b.Slice(0, j), out.Slice(0, k)) },
		func(c *fj.Ctx) { fjMerge(c, a.Slice(i, a.Len()), b.Slice(j, b.Len()), out.Slice(k, m)) },
	)
}
