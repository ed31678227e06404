package mat

import "repro/internal/core"

// MT builds the matrix-transposition BP computation of Section 3.2 for
// square matrices in the BI layout: dst = srcᵀ.  Exposing the parallelism of
// the recursive algorithm of Frigo et al. yields a BP computation with
// f(r) = O(1) and L(r) = O(1): every quadrant task reads and writes
// contiguous ranges of the BI arrays.
func MT(src, dst View) *core.Node {
	if src.Layout != BI || dst.Layout != BI || src.Rows != dst.Rows {
		panic("mat: MT requires equal-size BI views")
	}
	return mtNode(src, dst)
}

func mtNode(src, dst View) *core.Node {
	n := src.Rows
	if n == 1 {
		return core.Leaf(2*src.Elem, func(c *core.Ctx) {
			copyElem(c, src.Addr(0, 0), dst.Addr(0, 0), src.Elem)
		})
	}
	// dstᵀ: TL→TL, TR→BL, BL→TR, BR→BR.
	size := 2 * src.Words()
	return &core.Node{
		Size:  size,
		Label: "mt",
		Fork: func(c *core.Ctx) (*core.Node, *core.Node) {
			return core.Spread([]*core.Node{
					mtNode(src.Quad(0), dst.Quad(0)),
					mtNode(src.Quad(1), dst.Quad(2)),
				}), core.Spread([]*core.Node{
					mtNode(src.Quad(2), dst.Quad(1)),
					mtNode(src.Quad(3), dst.Quad(3)),
				})
		},
	}
}

// copyElem copies one element of elem words through the cache simulation.
func copyElem(c *core.Ctx, src, dst int64, elem int64) {
	for k := int64(0); k < elem; k++ {
		c.W(dst+k, c.R(src+k))
	}
}
