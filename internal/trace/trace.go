// Package trace measures the structural parameters of Table 1 that are
// defined per task rather than per run, in one pass over a recording of the
// run (core.Tape), which holds the task tree and every action's accesses:
//
//   - f(r), the cache-friendliness (Definition 2.1): a task of size r is
//     f-friendly if it touches O(r/B + f(r)) blocks.  The pass reports the
//     worst blocks − ⌈|τ|/B⌉ per |τ|, the distinct words a task's subtree
//     touched, over the tasks the builder sizes at 2 or more.
//   - L(r), the block-sharing function (Definition 2.3): the blocks a task's
//     subtree shares with the tasks that may run in parallel with it — those
//     neither its ancestors nor its descendants whose lowest common ancestor
//     with it is a fork or a range split, not a sequence, whose stages run
//     one after another.  The pass reports the worst per task size, over
//     every task.
//   - The balance condition (Definition 3.2.vi): the max/min size ratio of
//     tasks of size 4 or more at equal priority.
//   - Limited access (Definition 2.4): the most writes to any one word.
//
// No schedule is involved: the tape is the same whatever cores ran it.
// Stack words are left out of all four measures, as the execution stacks
// house different variables at one address.  An input word's block is its
// address over B, and a heap word's is its allocation and offset over B:
// every allocation is block-aligned.
package trace

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/core"
)

// Params is what Measure reads off a tape.
type Params struct {
	Tasks      int
	F          []FPoint // by size, ascending
	L          []LPoint // by size, ascending
	MaxF, MaxL int64    // the largest excess and sharing
	Balance    float64
	MaxWrites  int // the most writes to any one word
}

// FPoint is one (size, excess-blocks) observation.
type FPoint struct {
	Size   int64 // |τ| = distinct words touched
	Blocks int64
	Excess int64 // Blocks − ⌈|τ|/B⌉, the f(r) term of Definition 2.1
}

// LPoint is one (size, shared-blocks) observation.
type LPoint struct {
	Size   int64
	Shared int64
}

// Measure walks t once and returns its tasks' parameters.
func Measure(t *core.Tape) Params {
	p := &pass{shift: uint(bits.TrailingZeros(uint(t.BlockWords()))), writes: map[uint64]int{}}
	t.Walk(p)
	n := len(p.tasks)
	res := Params{Tasks: n}
	for _, w := range p.writes {
		res.MaxWrites = max(res.MaxWrites, w)
	}

	// Bottom up (children follow their parent in walk order): each task's
	// word and block sets, and f.
	words := make([][]uint64, n) // a task's subtree's, as its children merge in
	blocks := make([][]uint64, n)
	f := map[int64]FPoint{}
	b := int64(1) << p.shift
	for id := n - 1; id >= 0; id-- {
		tk := &p.tasks[id]
		slices.Sort(tk.own)
		w := union(slices.Compact(tk.own), words[id])
		words[id], tk.own = nil, nil
		blocks[id] = p.blocksOf(w)
		if r, nb := int64(len(w)), int64(len(blocks[id])); tk.size >= 2 && nb > 0 {
			ex := max(0, nb-(r+b-1)/b)
			if cur, ok := f[r]; !ok || ex > cur.Excess {
				f[r] = FPoint{Size: r, Blocks: nb, Excess: ex}
			}
		}
		if tk.parent >= 0 {
			words[tk.parent] = union(words[tk.parent], w)
		}
	}
	for _, pt := range f {
		res.F = append(res.F, pt)
		res.MaxF = max(res.MaxF, pt.Excess)
	}
	slices.SortFunc(res.F, func(x, y FPoint) int { return cmp.Compare(x.Size, y.Size) })

	// Top down: the blocks a task shares with tasks parallel to it are
	// those its parent shares, and, below a fork or a range split, those
	// its sibling's subtree touches.
	shared := make([][]uint64, n)
	l := map[int64]int64{p.tasks[0].size: 0}
	for id := 1; id < n; id++ {
		tk := &p.tasks[id]
		par := &p.tasks[tk.parent]
		var sib []uint64
		if s := par.kids[0]; par.kind != core.KindSeq {
			if s == int32(id) {
				s = par.kids[1]
			}
			if s >= 0 {
				sib = blocks[s]
			}
		}
		shared[id] = within(blocks[id], shared[tk.parent], sib)
		l[tk.size] = max(l[tk.size], int64(len(shared[id])))
	}
	for size, sh := range l {
		res.L = append(res.L, LPoint{Size: size, Shared: sh})
		res.MaxL = max(res.MaxL, sh)
	}
	slices.SortFunc(res.L, func(x, y LPoint) int { return cmp.Compare(x.Size, y.Size) })

	lo, hi := map[int]int64{}, map[int]int64{}
	for _, tk := range p.tasks {
		if l, ok := lo[tk.prio]; tk.size >= 4 && (!ok || tk.size < l) {
			lo[tk.prio] = tk.size
		}
		hi[tk.prio] = max(hi[tk.prio], tk.size)
	}
	res.Balance = 1
	for prio, l := range lo {
		res.Balance = max(res.Balance, float64(hi[prio])/float64(l))
	}
	return res
}

// pass is the core.Visitor that keeps what Measure needs of each task.
type pass struct {
	shift  uint // log₂ B
	tasks  []task
	writes map[uint64]int
}

type task struct {
	parent int32
	kids   [2]int32 // a fork's or range task's children; -1: none
	kind   core.TaskKind
	prio   int
	size   int64
	own    []uint64 // the words its own actions touched
}

// heapWord tags a heap word's key, allocation<<32 | offset; an input
// word's key is its address.
const heapWord = 1 << 63

func (p *pass) Task(t core.WalkTask) {
	p.tasks = append(p.tasks, task{parent: int32(t.Parent), kids: [2]int32{-1, -1},
		kind: t.Kind, prio: t.Prio, size: t.Size})
	if t.Parent < 0 {
		return
	}
	if kids := &p.tasks[t.Parent].kids; kids[0] < 0 {
		kids[0] = int32(t.ID)
	} else {
		kids[1] = int32(t.ID)
	}
}

func (p *pass) Access(id int, w core.Word, write bool) {
	var key uint64
	switch w.Kind {
	case core.StackWord:
		return
	case core.InputWord:
		key = uint64(w.Off)
	default:
		key = heapWord | uint64(w.K)<<32 | uint64(w.Off)
	}
	p.tasks[id].own = append(p.tasks[id].own, key)
	if write {
		p.writes[key]++
	}
}

func (p *pass) Op(int, int64) {}

// blocksOf returns the blocks of the sorted word keys w, sorted: a key's
// block keeps its order.
func (p *pass) blocksOf(w []uint64) []uint64 {
	out := make([]uint64, 0, len(w)>>p.shift+1)
	for _, k := range w {
		if k&heapWord == 0 {
			k >>= p.shift
		} else {
			k = k&^(1<<32-1) | k&(1<<32-1)>>p.shift
		}
		if len(out) == 0 || out[len(out)-1] != k {
			out = append(out, k)
		}
	}
	return out
}

// union returns the union of the sorted sets a and b, which it may share.
func union(a, b []uint64) []uint64 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]uint64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// within returns the elements of the sorted set s that lie in the sorted
// set a or b.
func within(s, a, b []uint64) []uint64 {
	var out []uint64
	for _, k := range s {
		if _, ok := slices.BinarySearch(a, k); ok {
			out = append(out, k)
		} else if _, ok := slices.BinarySearch(b, k); ok {
			out = append(out, k)
		}
	}
	return out
}
