// Package trace instruments engine runs to measure the structural parameters
// of Table 1 that are defined per task rather than per run:
//
//   - f(r), the cache-friendliness (Definition 2.1): a task of size r is
//     f-friendly if it touches O(r/B + f(r)) blocks.  We record the blocks
//     touched by sampled tasks and report blocks − ⌈r/B⌉ by size.
//   - L(r), the block-sharing function (Definition 2.3): the number of
//     blocks a task shares with tasks that may run in parallel with it.  We
//     approximate it as the blocks of a stolen task also touched by
//     time-overlapping tasks that are not its ancestors or descendants.
//   - The balance condition (Definition 3.2.vi): the max/min size ratio of
//     tasks at equal priority.
//
// Tracing walks each access up the active task's ancestor chain, so it is
// meant for small-n validation runs, not large benchmarks.
package trace

import (
	"sort"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Task is the recorded lifetime of one task.
type Task struct {
	ID, Parent int64
	Prio       int
	Size       int64
	Proc       int
	Start, End int64
	Stolen     bool
	Blocks     map[int64]bool
	// Words is the set of distinct addresses the task's subtree touched;
	// this is |τ| as Definition 2.1 uses it (the f-measure compares Blocks
	// against ⌈Words/B⌉, since Node.Size is only the builder's estimate).
	Words map[int64]bool
}

// sampleMinSize limits block-set tracking to tasks at least this large.
const sampleMinSize = 2

// Tracer collects task records; attach with Attach before Engine.Run.
type Tracer struct {
	space   *mem.Space
	tasks   map[int64]*Task
	procCur []int64
	order   []int64 // ids in start order
}

// Attach wires the tracer into an engine and its machine.
func Attach(e *core.Engine, t *Tracer) {
	m := e.Machine()
	t.space = m.Space
	t.tasks = make(map[int64]*Task)
	t.procCur = make([]int64, m.Cfg.P)
	for i := range t.procCur {
		t.procCur[i] = -1
	}
	e.Hooks = &core.Hooks{
		TaskStart: func(id, parent int64, prio int, size int64, proc int, now int64, stolen bool) {
			t.tasks[id] = &Task{
				ID: id, Parent: parent, Prio: prio, Size: size,
				Proc: proc, Start: now, Stolen: stolen,
				Blocks: make(map[int64]bool),
				Words:  make(map[int64]bool),
			}
			t.order = append(t.order, id)
			t.procCur[proc] = id
		},
		TaskEnd: func(id int64, proc int, now int64) {
			if tk := t.tasks[id]; tk != nil {
				tk.End = now
			}
		},
		ProcTask: func(proc int, id int64) {
			t.procCur[proc] = id
		},
	}
	m.Observer = t
}

// ObserveAccess implements machine.AccessObserver: attribute the block to the
// active task and all its ancestors (a task's accesses include those of its
// subtree).
func (t *Tracer) ObserveAccess(proc int, addr mem.Addr, write bool, kind machine.AccessKind, now int64) {
	id := t.procCur[proc]
	b := t.space.Block(addr)
	for id >= 0 {
		tk := t.tasks[id]
		if tk == nil {
			return
		}
		if tk.Size >= sampleMinSize {
			tk.Blocks[b] = true
			tk.Words[addr] = true
		}
		id = tk.Parent
	}
}

// Tasks returns all recorded tasks in start order.
func (t *Tracer) Tasks() []*Task {
	out := make([]*Task, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.tasks[id])
	}
	return out
}

// FPoint is one (size, excess-blocks) observation.
type FPoint struct {
	Size   int64 // |τ| = distinct words touched
	Blocks int64
	Excess int64 // Blocks − ⌈|τ|/B⌉, the f(r) term of Definition 2.1
}

// FMeasure returns, for each task size present, the worst-case block excess
// over the scan bound — an empirical f(r).  Size is the measured |τ|
// (distinct words touched by the subtree), not the builder's estimate.
func (t *Tracer) FMeasure(B int64) []FPoint {
	worst := map[int64]FPoint{}
	for _, tk := range t.tasks {
		if len(tk.Blocks) == 0 {
			continue
		}
		r := int64(len(tk.Words))
		scan := (r + B - 1) / B
		ex := int64(len(tk.Blocks)) - scan
		if ex < 0 {
			ex = 0
		}
		if cur, ok := worst[r]; !ok || ex > cur.Excess {
			worst[r] = FPoint{Size: r, Blocks: int64(len(tk.Blocks)), Excess: ex}
		}
	}
	out := make([]FPoint, 0, len(worst))
	for _, p := range worst {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	return out
}

// MaxFExcess returns the largest f-excess over all sampled tasks.
func (t *Tracer) MaxFExcess(B int64) int64 {
	var max int64
	for _, p := range t.FMeasure(B) {
		if p.Excess > max {
			max = p.Excess
		}
	}
	return max
}

// LPoint is one (size, shared-blocks) observation for a stolen task.
type LPoint struct {
	Size   int64
	Shared int64
}

// LMeasure approximates L(r): for every stolen task, the number of its
// blocks also touched by a time-overlapping task that is neither ancestor
// nor descendant.  Returns the worst case per size.
func (t *Tracer) LMeasure() []LPoint {
	stolen := make([]*Task, 0)
	for _, tk := range t.tasks {
		if tk.Stolen && len(tk.Blocks) > 0 {
			stolen = append(stolen, tk)
		}
	}
	worst := map[int64]int64{}
	for _, a := range stolen {
		shared := map[int64]bool{}
		for _, b := range t.tasks {
			if b.ID == a.ID || len(b.Blocks) == 0 {
				continue
			}
			if !overlap(a, b) || related(t.tasks, a, b) {
				continue
			}
			for blk := range a.Blocks {
				if b.Blocks[blk] {
					shared[blk] = true
				}
			}
		}
		if int64(len(shared)) > worst[a.Size] {
			worst[a.Size] = int64(len(shared))
		}
	}
	out := make([]LPoint, 0, len(worst))
	for sz, sh := range worst {
		out = append(out, LPoint{Size: sz, Shared: sh})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	return out
}

func overlap(a, b *Task) bool {
	aEnd, bEnd := a.End, b.End
	if aEnd == 0 {
		aEnd = 1 << 62
	}
	if bEnd == 0 {
		bEnd = 1 << 62
	}
	return a.Start < bEnd && b.Start < aEnd
}

// related reports whether one task is an ancestor of the other.
func related(tasks map[int64]*Task, a, b *Task) bool {
	return isAncestor(tasks, a.ID, b) || isAncestor(tasks, b.ID, a)
}

func isAncestor(tasks map[int64]*Task, anc int64, tk *Task) bool {
	for id := tk.Parent; id >= 0; {
		if id == anc {
			return true
		}
		p := tasks[id]
		if p == nil {
			return false
		}
		id = p.Parent
	}
	return false
}

// BalanceRatio returns the worst max/min size ratio among tasks of equal
// priority with at least minSize size — the balance condition check.
func (t *Tracer) BalanceRatio(minSize int64) float64 {
	type mm struct{ min, max int64 }
	byPrio := map[int]*mm{}
	for _, tk := range t.tasks {
		if tk.Size < minSize {
			continue
		}
		e := byPrio[tk.Prio]
		if e == nil {
			byPrio[tk.Prio] = &mm{tk.Size, tk.Size}
			continue
		}
		if tk.Size < e.min {
			e.min = tk.Size
		}
		if tk.Size > e.max {
			e.max = tk.Size
		}
	}
	worst := 1.0
	for _, e := range byPrio {
		if r := float64(e.max) / float64(e.min); r > worst {
			worst = r
		}
	}
	return worst
}
