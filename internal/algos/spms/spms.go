// Package spms implements the paper's actual sorting subroutine — SPMS
// (Sample, Partition, and Merge Sort; Cole–Ramachandran, *Resource Oblivious
// Sorting on Multicores*) — as a fork-join kernel written against
// internal/fj.  It is the simulator's sort: EXP14 fits its cache misses and
// EXP15 its critical path.  It is not served: on hardware it lost to the
// merge sort of internal/algos/sortx at every size measured (2¹⁶ to 2²²
// keys, p = 1 and 2), so sortx is the served sort.  The source still lowers
// to the real backend, where the tests hold it to the serial reference.
//
// The kernel follows SPMS's recursion shape.  A sort of n keys splits into
// k ≈ √n runs that sort recursively in parallel (O(log log n) levels of
// sort recursion, each shrinking the problem size to its square root), and
// the sorted runs are then combined by the full k-way sample-partition
// merge: every run contributes one sample element at a rank staggered by
// run index (run s samples its element of rank ≈ s·lmax/k, so the k
// samples spread over k distinct ranks of the merged order), the sample is
// sorted with one serial k-way heap pass over k one-element run slices
// (exactly 2k charged accesses, no gather phase), every sorted sample
// element but the last becomes a splitter, and one parallel phase of dual
// binary searches (LowerBound and UpperBound per splitter × run) cuts
// every run against every splitter at once.  The buckets between
// consecutive splitters are independent subproblems of size ≈ m/k ≈ √m
// for a merge of total size m, and they merge recursively in parallel
// straight into their exact output slices — a bucket of √m elements drawn
// from up to k runs is a many-tiny-runs shape that finishes in one
// constant-bounded serial heap pass (at or below serialKMaxSim; larger
// buckets keep recursing), so a merge of size m pays one O(log m)
// partition phase plus a bounded tail and the whole sort meets the SPMS
// worst-case depth form O(log n · log log n) — the form EXP15 fits, on
// adversarial inputs as well as uniform ones, versus the O(log³ n) of the
// Type-2 HBP merge sort in internal/algos/sortx.
//
// Duplicate keys cannot unbalance the partition: a splitter's equal-key
// range in every run is located with the dual bounds and then divided
// *positionally* — each run hands the j-th of g equal splitters the
// ⌊e·j/(g+1)⌋ prefix of its e equal keys — so an all-equal input still
// splits into near-equal buckets, the same rank-not-value discipline the
// two-way sortutil.Split applies at its output cuts.  Keys are exact int64
// and a sorted multiset has a unique word sequence, so the sim and real
// lowerings stay byte-identical at any leaf cutoff.  Degenerate shapes
// (samples too thin to yield a splitter, or a pathological bucket that
// fails to shrink) fall back to a pairwise merge tree, which is always
// correct and only costs depth.
package spms

import (
	"repro/internal/algos/sortutil"
	"repro/internal/fj"
)

// Per-backend leaf cutoffs: run length at or below which a run goes to the
// serial sort leaf (sortutil.SortLeaf), and combined length at or below
// which merges are serial (sortutil.MergeK, MergeSerial).  Simulator grains
// stay small so the model observes the recursion; the real grains only keep
// the tests' hardware runs short.
const (
	FJSortGrainSim   = 16
	FJSortGrainReal  = 4096
	FJMergeGrainSim  = 24
	FJMergeGrainReal = 4096
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
// in src otherwise.  One SPMS level: split into k ≈ √n runs, sort them
// recursively in parallel into the array the merge does NOT target, then
// combine all runs at once with the k-way sample-partition merge — a single
// pass that moves every element into its final slot for this level.
func fjSortRec(c *fj.Ctx, src, buf fj.I64, toBuf bool) {
	n := src.Len()
	if n <= c.Grain(FJSortGrainSim, FJSortGrainReal) {
		sortutil.SortLeaf(c, src)
		if toBuf {
			fjCopy(c, src, buf)
		}
		return
	}
	k := runCount(n)
	runLen := (n + k - 1) / k
	c.ForRange(0, k, 1, func(c *fj.Ctx, rlo, rhi int64) {
		for r := rlo; r < rhi; r++ {
			lo, hi := runBounds(n, runLen, r, r+1)
			fjSortRec(c, src.Slice(lo, hi), buf.Slice(lo, hi), !toBuf)
		}
	})
	from, into := buf, src
	if toBuf {
		from, into = src, buf
	}
	runs := make([]fj.I64, 0, k)
	for r := int64(0); r < k; r++ {
		if lo, hi := runBounds(n, runLen, r, r+1); lo < hi {
			runs = append(runs, from.Slice(lo, hi))
		}
	}
	FJMergeK(c, runs, into)
}

// runCount returns the SPMS split arity for n: the smallest power of two at
// or above ⌊√n⌋ (a power of two keeps the run layout balanced).
func runCount(n int64) int64 {
	s := isqrt(n)
	k := int64(2)
	for k < s {
		k <<= 1
	}
	return k
}

// runBounds returns the span of runs [r0, r1) in an n-element array cut
// into runLen-sized runs (the trailing run may be short or empty).
func runBounds(n, runLen, r0, r1 int64) (lo, hi int64) {
	lo = min(n, r0*runLen)
	hi = min(n, r1*runLen)
	return lo, hi
}

// isqrt returns ⌊√n⌋ for n ≥ 0 (integer Newton iteration — exact, so both
// lowerings agree on every split).
func isqrt(n int64) int64 {
	if n < 2 {
		return n
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}

// serialKMaxSim is the simulator size cap for merging many tiny runs with
// one serial k-way heap pass instead of the pairwise tree.  The serial merge
// charges exactly 2m accesses of depth; the tree pays a full partition phase
// per level, which measures ~2-3× worse on this shape below ~128 elements.
const serialKMaxSim = 192

// FJMergeK merges the sorted runs into out (whose length must be the runs'
// total) by the SPMS k-way sample-partition merge.  Empty runs are
// permitted.  Exported so the fuzz battery can drive the merge directly
// against the sortutil serial reference.
func FJMergeK(c *fj.Ctx, runs []fj.I64, out fj.I64) {
	live := make([]fj.I64, 0, len(runs))
	for _, r := range runs {
		if r.Len() > 0 {
			live = append(live, r)
		}
	}
	runs = live
	m := out.Len()
	switch {
	case len(runs) == 0:
		return
	case len(runs) == 1:
		fjCopy(c, runs[0], out)
		return
	case m <= c.Grain(FJMergeGrainSim, FJMergeGrainReal):
		sortutil.MergeK(c, runs, out)
		return
	case len(runs) == 2:
		fjMerge2(c, runs[0], runs[1], out)
		return
	}

	k := int64(len(runs))
	if 4*k > m {
		// Runs average under four elements — a sample would be most of the
		// input itself, so the sample machinery cannot pay off.  Small
		// shapes take the serial pass (under the simulator the heap's 2m
		// charged depth beats the tree's per-level partition phases there);
		// bigger ones fall back to the pairwise merge tree, which is always
		// exact.
		if m <= c.Grain(serialKMaxSim, FJMergeGrainReal) {
			sortutil.MergeK(c, runs, out)
			return
		}
		fjMergeTree(c, runs, out)
		return
	}

	// Sample: one element per run, at a rank STAGGERED by run index (run s
	// contributes its element of rank ≈ s·lmax/k) so the k samples land on
	// k distinct ranks instead of all on the same one — identically ranked
	// samples (say, every run's median) concentrate around one quantile of
	// the merged distribution and degenerate the partition into two giant
	// edge buckets.  Each sample is a one-element slice of its run handed
	// straight to the serial k-way heap pass, so sorting the sample charges
	// exactly 2k accesses and needs no separate gather phase.  Every sorted
	// sample element but the last becomes a splitter, bounding the buckets
	// near m/k ≈ √m.
	lmax := int64(0)
	for _, r := range runs {
		if r.Len() > lmax {
			lmax = r.Len()
		}
	}
	nsp := k - 1 // every sorted sample element but the last is a splitter
	sruns := make([]fj.I64, k)
	for s := int64(0); s < k; s++ {
		p := s * lmax / k
		if last := runs[s].Len() - 1; p > last {
			p = last
		}
		sruns[s] = runs[s].Slice(p, p+1)
	}
	sorted := c.ScratchI64(k) // MergeK writes all k elements before any read
	sortutil.MergeK(c, sruns, sorted)

	// Splitters: every sorted sample element but the last, annotated with
	// its positional rank within its equal-value group (G of g) so the cut
	// phase can divide duplicate ranges by rank, never by value.
	sval := c.ScratchI64(nsp) // the cut loop below fills all nsp slots first
	snum := c.ScratchI64(nsp) // G: 1-based rank of the splitter in its group
	sden := c.ScratchI64(nsp) // g: number of splitters sharing the value
	c.ForRange(0, nsp, 1, func(c *fj.Ctx, lo, hi int64) {
		for j := lo; j < hi; j++ {
			v := sorted.Get(c, j)
			gl := sortutil.LowerBound(c, sorted, v) // first splitter of the group
			jhi := sortutil.UpperBound(c, sorted, v) - 1
			if jhi > nsp-1 {
				jhi = nsp - 1 // the last sample element is not a splitter
			}
			sval.Set(c, j, v)
			snum.Set(c, j, j-gl+1)
			sden.Set(c, j, jhi-gl+1)
		}
	})
	c.FreeI64(sorted)

	// Partition: one parallel phase of dual binary searches cuts every run
	// against every splitter.  cut[j*k+s] = how many elements of run s land
	// at or before splitter j: everything below the splitter value, plus a
	// positional G/(g+1) share of the run's own equal-value range.
	cutm := c.ScratchI64(nsp * k) // every slot written by this loop
	c.ForRange(0, nsp*k, 1, func(c *fj.Ctx, lo, hi int64) {
		for t := lo; t < hi; t++ {
			j, s := t/k, t%k
			v := sval.Get(c, j)
			lb := sortutil.LowerBound(c, runs[s], v)
			ub := sortutil.UpperBound(c, runs[s], v)
			g := sden.Get(c, j)
			cutm.Set(c, t, lb+(ub-lb)*snum.Get(c, j)/(g+1))
		}
	})
	c.FreeI64(sval)
	c.FreeI64(snum)
	c.FreeI64(sden)

	// Buckets: nsp+1 independent k-way merges straight into their exact
	// output slices.  Each bucket derives its own output offsets by
	// reducing the adjacent cut-matrix rows with the log-depth halving
	// tree (recomputing the two sums per bucket is parallel work; a
	// separate offsets phase would serialize the merge's critical path on
	// one more fork-join barrier).  A bucket that failed to shrink
	// (pathological value concentration the sample could not see) falls
	// back to the pairwise tree, which needs no further sampling to make
	// progress.
	c.ForRange(0, nsp+1, 1, func(c *fj.Ctx, jlo, jhi int64) {
		for j := jlo; j < jhi; j++ {
			bruns := make([]fj.I64, k)
			c.ForRange(0, k, 1, func(c *fj.Ctx, slo, shi int64) {
				for s := slo; s < shi; s++ {
					lo := int64(0)
					if j > 0 {
						lo = cutm.Get(c, (j-1)*k+s)
					}
					hi := runs[s].Len()
					if j < nsp {
						hi = cutm.Get(c, j*k+s)
					}
					bruns[s] = runs[s].Slice(lo, hi)
				}
			})
			olo := int64(0)
			if j > 0 {
				olo = fjSum(c, cutm, (j-1)*k, j*k)
			}
			ohi := m
			if j < nsp {
				ohi = fjSum(c, cutm, j*k, (j+1)*k)
			}
			if 2*(ohi-olo) > m {
				fjMergeTree(c, bruns, out.Slice(olo, ohi))
			} else {
				FJMergeK(c, bruns, out.Slice(olo, ohi))
			}
		}
	})
	c.FreeI64(cutm)
}

// fjSum reduces v[lo:hi) with a halving tree: O(log) critical path, so row
// sums over the k-wide cut matrix never serialize on the run count.
func fjSum(c *fj.Ctx, v fj.I64, lo, hi int64) int64 {
	if hi-lo <= 8 {
		return fj.Sum(c, v.Slice(lo, hi))
	}
	mid := lo + (hi-lo)/2
	var a, b int64
	c.Parallel(
		func(c *fj.Ctx) { a = fjSum(c, v, lo, mid) },
		func(c *fj.Ctx) { b = fjSum(c, v, mid, hi) },
	)
	return a + b
}

// fjMergeTree combines the runs into out with a balanced pairwise tree of
// two-way partition merges ping-ponging through one scratch buffer — the
// degenerate-shape fallback of FJMergeK (samples too thin, buckets that
// refuse to shrink), always correct at O(log k · log m) depth.
func fjMergeTree(c *fj.Ctx, runs []fj.I64, out fj.I64) {
	switch len(runs) {
	case 0:
		return
	case 1:
		fjCopy(c, runs[0], out)
		return
	case 2:
		fjMerge2(c, runs[0], runs[1], out)
		return
	}
	tmp := c.ScratchI64(out.Len()) // children write every region they expose
	fjMergeTreeRec(c, runs, out, tmp, false)
	c.FreeI64(tmp)
}

// fjMergeTreeRec merges runs into tmp when toTmp is set and into out
// otherwise; children produce their halves in the opposite array, which
// the final two-way merge ping-pongs back.
func fjMergeTreeRec(c *fj.Ctx, runs []fj.I64, out, tmp fj.I64, toTmp bool) {
	target, other := out, tmp
	if toTmp {
		target, other = tmp, out
	}
	if len(runs) == 1 {
		fjCopy(c, runs[0], target)
		return
	}
	mid := len(runs) / 2
	var lt int64
	for _, r := range runs[:mid] {
		lt += r.Len()
	}
	m := target.Len()
	c.Parallel(
		func(c *fj.Ctx) { fjMergeTreeRec(c, runs[:mid], out.Slice(0, lt), tmp.Slice(0, lt), !toTmp) },
		func(c *fj.Ctx) { fjMergeTreeRec(c, runs[mid:], out.Slice(lt, m), tmp.Slice(lt, m), !toTmp) },
	)
	fjMerge2(c, other.Slice(0, lt), other.Slice(lt, m), target)
}

// fjMerge2 merges two sorted runs into out by the two-way partition-merge:
// the output is cut into ⌈m/⌈√m⌉⌉ buckets of exactly ⌈√m⌉ elements, each
// boundary located with the shared output-rank dual binary search
// (sortutil.Split; all boundaries in one parallel phase), and the buckets
// merge recursively in parallel.
func fjMerge2(c *fj.Ctx, a, b, out fj.I64) {
	m := a.Len() + b.Len()
	if m <= c.Grain(FJMergeGrainSim, FJMergeGrainReal) {
		sortutil.MergeSerial(c, a, b, out)
		return
	}
	t := isqrt(m)                                    // bucket size (≥ 2 since m ≥ 4)
	nb := (m + t - 1) / t                            // bucket count ≈ √m
	ai, bi := c.ScratchI64(nb+1), c.ScratchI64(nb+1) // all nb+1 slots set below
	ai.Set(c, 0, 0)
	bi.Set(c, 0, 0)
	ai.Set(c, nb, a.Len())
	bi.Set(c, nb, b.Len())
	c.ForRange(1, nb, 1, func(c *fj.Ctx, lo, hi int64) {
		for j := lo; j < hi; j++ {
			i := sortutil.Split(c, a, b, j*t)
			ai.Set(c, j, i)
			bi.Set(c, j, j*t-i)
		}
	})
	c.ForRange(0, nb, 1, func(c *fj.Ctx, lo, hi int64) {
		for j := lo; j < hi; j++ {
			alo, ahi := ai.Get(c, j), ai.Get(c, j+1)
			blo, bhi := bi.Get(c, j), bi.Get(c, j+1)
			fjMerge2(c, a.Slice(alo, ahi), b.Slice(blo, bhi), out.Slice(alo+blo, ahi+bhi))
		}
	})
	c.FreeI64(ai)
	c.FreeI64(bi)
}

// fjCopy copies src into dst (equal lengths) as a parallel map.
func fjCopy(c *fj.Ctx, src, dst fj.I64) {
	n := src.Len()
	c.ForRange(0, n, 32, func(c *fj.Ctx, lo, hi int64) {
		fj.Copy(c, dst.Slice(lo, hi), src.Slice(lo, hi))
	})
}
