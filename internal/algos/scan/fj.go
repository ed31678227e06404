package scan

// Unified fork-join source: inclusive prefix sums written once against
// internal/fj.  The classical three-phase block algorithm — a parallel
// up-sweep of block sums, a serial exclusive scan over the (few) block sums,
// and a parallel down-sweep that rescans each block with its offset.  Every
// worker-visible write lands in a block-contiguous range, the layout
// discipline the paper's Type-1 analysis assumes.  int64 addition is exact,
// so the lowerings agree at any block grain.

import "repro/internal/fj"

// Per-backend block lengths: each block is one serial sum and one rescan.
const (
	FJPrefixGrainSim  = 64
	FJPrefixGrainReal = 4096
)

// FJPrefix computes out[i] = in[0] + … + in[i] in parallel.  in and out may
// be the same view.
func FJPrefix(c *fj.Ctx, in, out fj.I64) {
	n := in.Len()
	if out.Len() != n {
		panic("scan: FJPrefix length mismatch")
	}
	grain := c.Grain(FJPrefixGrainSim, FJPrefixGrainReal)
	nb := (n + grain - 1) / grain
	if nb <= 1 {
		fj.Prefix(c, in, out, 0)
		return
	}
	sums := c.ScratchI64(nb) // the up-sweep writes every block slot first
	c.ForRange(0, nb, 1, func(c *fj.Ctx, blo, bhi int64) {
		for bi := blo; bi < bhi; bi++ {
			sums.Set(c, bi, fj.Sum(c, in.Slice(bi*grain, min((bi+1)*grain, n))))
		}
	})
	var acc int64
	for bi := int64(0); bi < nb; bi++ {
		s := sums.Get(c, bi)
		sums.Set(c, bi, acc)
		acc += s
	}
	c.ForRange(0, nb, 1, func(c *fj.Ctx, blo, bhi int64) {
		for bi := blo; bi < bhi; bi++ {
			lo, hi := bi*grain, min((bi+1)*grain, n)
			fj.Prefix(c, in.Slice(lo, hi), out.Slice(lo, hi), sums.Get(c, bi))
		}
	})
	c.FreeI64(sums)
}
