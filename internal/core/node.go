// Package core implements the paper's computation model (Sections 2 and 3):
// Balanced Parallel (BP) computations, Hierarchical Balanced Parallel (HBP)
// computations built from them by sequencing and parallel recursion, task
// priorities, execution stacks held in simulated memory (so that the block
// misses of Section 3.3 are observable), and the deterministic fork-join
// engine that executes these computations on a simulated multicore under a
// pluggable work-stealing scheduler.
//
// A computation is a tree of Nodes.  Each Node performs O(1) work in its head
// (Fork), forks at most two children, and performs O(1) work in its up-pass
// (Join) — exactly Definition 3.2.  Sequencing for Type-i HBP computations
// (Definition 3.4) is expressed by Seq nodes whose stages are built lazily;
// the core that completes a stage starts the next one, so usurpation
// (Definition 4.1) arises naturally and is counted.  The BP loops over an
// index range (MapRange) are one Node each, split by the engine as it runs
// them, so a simulated loop allocates per range, not per index.
package core

// Node describes one task of an HBP computation.  A Node is either
//
//   - a fork/leaf node: Fork performs the task head and returns two children
//     (both nil for a leaf, whose entire O(1) computation happens in Fork);
//     Join, if non-nil, performs the up-pass work after both children have
//     completed;
//   - a sequence node (Seq non-nil, Fork nil): Seq(c, i) performs the O(1)
//     head work of stage i and returns the root task of that stage, or nil
//     when there are no more stages; stages run strictly in succession and
//     Join, if non-nil, runs after the final stage; or
//   - a range node (Range non-nil, Fork, Join and Seq nil): the BP
//     computation over an index range that MapRange builds, which the engine
//     splits itself (see Range).
//
// Size is the task size |τ| — the number of words the task (subtree)
// accesses — which drives the balance condition and the size-based priority
// analysis.  Locals declares the O(1) local variables of the task, allocated
// on the executing core's simulated execution stack; Pad adds the padding
// array of a padded BP computation (Definition 3.3, typically √|τ|).
//
// A Node is 64 bytes, one allocation size class; the Range pointer is paid
// for by Locals and Pad being int32 (both are small constants).
type Node struct {
	Size   int64
	Locals int32
	Pad    int32
	Label  string

	Fork  func(c *Ctx) (left, right *Node)
	Join  func(c *Ctx)
	Seq   func(c *Ctx, stage int) *Node
	Range *Range
}

// Range is a BP computation over the indices [Lo, Hi): a balanced binary
// down-pass splitting the range in half, with Body(c, i) run as the leaf of
// index i and no up-pass work.  Per is the task-size contribution of one
// index, so the task covering [lo, hi) has size (hi−lo)·Per.
//
// The engine splits a range node itself: a task covering [lo, hi) forks
// [lo, mid) and [mid, hi) as sub-range tasks of the same Node, so the tree is
// never built — no Node or closure is allocated per internal node or leaf —
// while task ids, priorities, sizes and the simulated costs are exactly those
// of the explicit tree.
type Range struct {
	Lo, Hi, Per int64
	Body        func(c *Ctx, i int64)
}

// Leaf returns a leaf node of the given size running fn as its O(1) body.
func Leaf(size int64, fn func(c *Ctx)) *Node {
	return &Node{
		Size: size,
		Fork: func(c *Ctx) (*Node, *Node) {
			fn(c)
			return nil, nil
		},
	}
}

// Spread builds a BP-like binary forking tree over the given subproblem
// roots, as the paper prescribes for forking the v(n) parallel recursive
// tasks of an HBP computation (Section 3.1, "Forking recursive tasks").
// Internal tree nodes do O(1) work; sizes halve geometrically so the tree is
// balanced with α = 1/2 when the subproblems have equal sizes.
func Spread(subs []*Node) *Node {
	switch len(subs) {
	case 0:
		return Leaf(1, func(c *Ctx) {})
	case 1:
		return subs[0]
	}
	var total int64
	for _, s := range subs {
		total += s.Size
	}
	return spreadRange(subs, total)
}

func spreadRange(subs []*Node, total int64) *Node {
	if len(subs) == 1 {
		return subs[0]
	}
	mid := len(subs) / 2
	var leftTotal int64
	for _, s := range subs[:mid] {
		leftTotal += s.Size
	}
	l, r := subs[:mid], subs[mid:]
	lt, rt := leftTotal, total-leftTotal
	return &Node{
		Size: total,
		Fork: func(c *Ctx) (*Node, *Node) {
			return spreadRange(l, lt), spreadRange(r, rt)
		},
	}
}

// Stages builds a sequence node of the given size whose i-th stage root is
// produced by stages[i].  Each stage function runs as the O(1) head work of
// that stage on whichever core completed the previous stage.
func Stages(size int64, stages ...func(c *Ctx) *Node) *Node {
	return &Node{
		Size: size,
		Seq: func(c *Ctx, i int) *Node {
			if i >= len(stages) {
				return nil
			}
			return stages[i](c)
		},
	}
}

// MapRange returns the BP computation over indices [lo, hi) as one range
// node (see Range): body(c, i) runs at leaf i, and sizePer is the task-size
// contribution of one index (words accessed per element).  An empty range is
// a unit leaf that does nothing.
func MapRange(lo, hi int64, sizePer int64, body func(c *Ctx, i int64)) *Node {
	n := hi - lo
	if n <= 0 {
		return Leaf(1, func(c *Ctx) {})
	}
	return &Node{Size: n * sizePer, Range: &Range{Lo: lo, Hi: hi, Per: sizePer, Body: body}}
}

// UpTreeIndex returns the in-order up-tree output slot for the node covering
// [lo, hi) of a size-n BP computation, per the data layout of Section 3.3:
// the output of each node is stored in the order of an in-order traversal of
// the up-tree, so sibling outputs at level k are ~2^k words apart and high
// levels of the up-pass incur no block sharing on output data.  Leaves map to
// even slots 2i; the node with midpoint m maps to slot 2m−1.  A size-n BP
// computation needs an output array of 2n−1 slots.
func UpTreeIndex(lo, hi int64) int64 {
	if hi-lo == 1 {
		return 2 * lo
	}
	mid := lo + (hi-lo)/2
	return 2*mid - 1
}

// UpTreeLen returns the length of the in-order up-tree output array for a
// size-n BP computation.
func UpTreeLen(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return 2*n - 1
}

// PadFor returns the padded-BP pad size for a task of the given size:
// ⌈√size⌉ words (Definition 3.3).
func PadFor(size int64) int {
	if size <= 1 {
		return 1
	}
	// Integer square root by Newton iteration.
	x := size
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + size/x) / 2
	}
	return int(x + 1)
}
