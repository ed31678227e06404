package mat

// Unified fork-join source: the cache-oblivious rectangular transpose of
// Frigo et al. written once against internal/fj over row-major float64
// views, recursively halving the longer dimension.  A transpose only moves
// bits, so the lowerings agree byte-for-byte at any leaf cutoff.
//
// The real leaf stores one destination row at a time: its inner loop fills
// dst[j][r0:r1] contiguously and loads src down column j, so the strided
// accesses are loads, not stores.  With power-of-two splits, a line-aligned
// dst and leaves at least 8 rows tall (64 here), each leaf writes whole
// 64-byte destination lines, so two leaves share no destination block — the
// paper's limited block sharing, on hardware.  The simulated leaf keeps the
// row-outer charged loop.

import "repro/internal/fj"

// Per-backend leaf areas (rows·cols at or below which the copy is serial).
// FJTGrainReal is a 64×64 tile: a 1024² transpose forks 255 times, each
// fork a heap-allocated closure pair (1023 at 32×32).  With row-at-a-time
// stores the leaf's speed is flat from 32×32 to 128×128; 128×128 would
// double the side of the registry's cross-backend gate, a simulated run.
const (
	FJTGrainSim  = 4
	FJTGrainReal = 4096
)

// FJTranspose computes dst = srcᵀ for an r×cols row-major src (dst is
// cols×r row-major).
func FJTranspose(c *fj.Ctx, src, dst fj.F64, r, cols int64) {
	fjT(c, src, dst, 0, r, 0, cols, cols, r)
}

// fjT transposes the [r0,r1)×[c0,c1) block; sStr and dStr are the row
// strides of src and dst.
func fjT(c *fj.Ctx, src, dst fj.F64, r0, r1, c0, c1, sStr, dStr int64) {
	rows, cols := r1-r0, c1-c0
	if rows*cols <= c.Grain(FJTGrainSim, FJTGrainReal) {
		if ss := src.Raw(); ss != nil {
			ds := dst.Raw()
			for j := c0; j < c1; j++ {
				row := ds[j*dStr+r0 : j*dStr+r1]
				for k := range row {
					row[k] = ss[(r0+int64(k))*sStr+j]
				}
			}
			return
		}
		for i := r0; i < r1; i++ {
			for j := c0; j < c1; j++ {
				dst.Set(c, j*dStr+i, src.Get(c, i*sStr+j))
			}
		}
		return
	}
	if rows >= cols {
		h := r0 + rows/2
		c.Parallel(
			func(c *fj.Ctx) { fjT(c, src, dst, r0, h, c0, c1, sStr, dStr) },
			func(c *fj.Ctx) { fjT(c, src, dst, h, r1, c0, c1, sStr, dStr) },
		)
		return
	}
	h := c0 + cols/2
	c.Parallel(
		func(c *fj.Ctx) { fjT(c, src, dst, r0, r1, c0, h, sStr, dStr) },
		func(c *fj.Ctx) { fjT(c, src, dst, r0, r1, h, c1, sStr, dStr) },
	)
}
