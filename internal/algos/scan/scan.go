// Package scan implements the scan-family HBP algorithms of Section 3.2:
// M-Sum (the paper's running example), MA (matrix/array addition), and PS
// (prefix sums as a sequence of two BP computations).  All are Type-1 HBP
// computations with f(r) = O(1) and L(r) = O(1): every task accesses a
// contiguous range, and any stolen task shares O(1) blocks with tasks that
// can run in parallel with it.
//
// Per the data layout of Section 3.3, up-pass outputs are stored in the
// order of an in-order traversal of the up-tree, so nodes high in the tree
// write outputs at least their subtree-span apart and incur no block sharing
// on output data.
package scan

import (
	"repro/internal/core"
	"repro/internal/mem"
)

// MSum builds the M-Sum computation of Section 2: sum the n elements of a,
// writing the total to out.  tree must have core.UpTreeLen(a.Len()) slots; it
// receives the per-node partial sums in in-order up-tree layout.  Each node
// declares two locals (s1, s2) on its execution stack, written by its
// children — the source of the stack block-sharing the paper analyzes.
func MSum(a mem.Array, out mem.Addr, tree mem.Array) *core.Node {
	return msum(a, 0, a.Len(), out, tree)
}

func msum(a mem.Array, lo, hi int64, out mem.Addr, tree mem.Array) *core.Node {
	if hi-lo == 1 {
		return core.Leaf(1, func(c *core.Ctx) {
			v := c.R(a.Addr(lo))
			c.W(tree.Addr(core.UpTreeIndex(lo, hi)), v)
			c.W(out, v)
		})
	}
	mid := lo + (hi-lo)/2
	return &core.Node{
		Size:   hi - lo,
		Locals: 2,
		Label:  "msum",
		Fork: func(c *core.Ctx) (*core.Node, *core.Node) {
			s1, s2 := c.Local(0), c.Local(1)
			return msum(a, lo, mid, s1, tree), msum(a, mid, hi, s2, tree)
		},
		Join: func(c *core.Ctx) {
			sum := c.R(c.Local(0)) + c.R(c.Local(1))
			c.W(tree.Addr(core.UpTreeIndex(lo, hi)), sum)
			c.W(out, sum)
		},
	}
}

// Add builds MA: out[i] = a[i] + b[i] elementwise, a single BP computation.
func Add(a, b, out mem.Array) *core.Node {
	if a.Len() != b.Len() || a.Len() != out.Len() {
		panic("scan: Add length mismatch")
	}
	return core.MapRange(0, a.Len(), 3, func(c *core.Ctx, i int64) {
		c.W(out.Addr(i), c.R(a.Addr(i))+c.R(b.Addr(i)))
	})
}

// PrefixSums builds PS as a Type-1 HBP computation: a sequence of two BP
// computations (Section 3.2).  The first BP pass computes the sums of the
// disjoint power-of-two subtrees (the up-tree, stored in in-order layout in
// tree); the second pass pushes prefixes down, writing out[i] = a[0]+…+a[i].
// tree must have core.UpTreeLen(a.Len()) slots and scratch one slot.
func PrefixSums(a, out, tree mem.Array, scratch mem.Addr) *core.Node {
	n := a.Len()
	return core.Stages(2*n,
		func(c *core.Ctx) *core.Node { return msum(a, 0, n, scratch, tree) },
		func(c *core.Ctx) *core.Node { return psDown(a, out, tree, 0, n, 0) },
	)
}

// psDown distributes prefix offsets: the node covering [lo,hi) receives the
// sum of all elements before lo in offset (a compile-time-captured constant
// flowing down the tree via closure arguments — O(1) head work per node).
// Left subtree sums are read from the in-order up-tree.
func psDown(a, out, tree mem.Array, lo, hi, _ int64) *core.Node {
	return psDownOff(a, out, tree, lo, hi, -1)
}

// psDownOff: offAddr is the address holding the prefix offset for this
// subtree (-1 means offset 0, for the leftmost spine).  Offsets are stored in
// the parent's locals, as Definition 3.2 prescribes for BP data flow.
func psDownOff(a, out, tree mem.Array, lo, hi int64, offAddr mem.Addr) *core.Node {
	readOff := func(c *core.Ctx) int64 {
		if offAddr < 0 {
			return 0
		}
		return c.R(offAddr)
	}
	if hi-lo == 1 {
		return core.Leaf(2, func(c *core.Ctx) {
			c.W(out.Addr(lo), readOff(c)+c.R(a.Addr(lo)))
		})
	}
	mid := lo + (hi-lo)/2
	return &core.Node{
		Size:   2 * (hi - lo),
		Locals: 1,
		Label:  "psdown",
		Fork: func(c *core.Ctx) (*core.Node, *core.Node) {
			off := readOff(c)
			leftSum := c.R(tree.Addr(core.UpTreeIndex(lo, mid)))
			rightOff := c.Local(0)
			c.W(rightOff, off+leftSum)
			return psDownOff(a, out, tree, lo, mid, offAddr),
				psDownOff(a, out, tree, mid, hi, rightOff)
		},
	}
}
