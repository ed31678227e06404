package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
)

// Scheduler is the work-stealing policy plugged into the Engine.  The engine
// drives the fork-join semantics (deques, joins, usurpation); the scheduler
// decides who steals what, when, and at what overhead.  Implementations live
// in internal/sched (PWS and RWS).
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Idle is called when proc p has no current task and an empty deque,
	// at p's local time.  The scheduler may assign work immediately via
	// Engine.Steal, park the proc (Engine.Park) to be woken by later
	// events, or charge a failed attempt and leave the proc runnable.
	Idle(e *Engine, p int)
	// Pushed is called after proc v pushes a task onto its deque.
	Pushed(e *Engine, v int)
	// Drained is called when proc v's deque becomes empty because v popped
	// its own last task (the §4.7 "imminent priority" flag becomes v's
	// only advertisement).
	Drained(e *Engine, v int)
}

// Options tunes the engine.
type Options struct {
	// Padded enables padded BP execution (Definition 3.3): every task with
	// a stack frame also allocates a pad of ⌈√|τ|⌉ words, separating
	// successive frames so they rarely share a block.
	Padded bool
}

// stackWords is the per-proc execution-stack reservation in words.
const stackWords = 1 << 16

// Hooks receives a run's task events, with the proc and simulated time of
// each; any field may be nil.  What a task is, as against when and where it
// ran, is read off a recording instead (Tape.Walk).
type Hooks struct {
	// TaskStart fires when a task's head begins executing.
	TaskStart func(id, parent int64, prio int, size int64, proc int, now int64, stolen bool)
	// TaskEnd fires when a task (its whole subtree) completes.
	TaskEnd func(id int64, proc int, now int64)
}

// Engine executes a Node tree on a simulated machine under a scheduler.
// One Engine runs one computation; build a fresh machine and engine per run.
type Engine struct {
	m     *machine.Machine
	sched Scheduler
	opts  Options
	ps    []*procState
	Hooks *Hooks

	done   bool
	rootCP int64
	nextID int64
	// free is the list of completed task records awaiting reuse, linked
	// through rec.parent: the engine keeps as many records as tasks were
	// ever live at once, not one per task.
	free *rec

	steals       int64
	stealsByPrio map[int]int64
	attempts     int64
	usurpations  int64
	maxPrio      int

	// inputs is the size of the space when the engine was built — the
	// words the computation's builder allocated — and heapStart its size
	// once the execution stacks are reserved: what actions allocate lies
	// above it.
	inputs, heapStart mem.Addr
	// rc records the run while Record runs it; nil otherwise.
	rc *recorder
}

type procState struct {
	id int
	p  *machine.Proc
	// ctx is the context every action on this proc runs under, reset by
	// action: a Ctx is valid only for the call it is passed to.
	ctx       Ctx
	cur       *rec
	dq        deque
	stack     *execStack
	parked    bool
	idleSince int64
}

// rec is the runtime record of one task instance.
type rec struct {
	id      int64
	node    *Node
	parent  *rec
	prio    int
	pending int
	stage   int
	owner   int // proc that executed the head
	stolen  bool
	tid     int32 // the task's index in the tape a recording builds

	// lo, hi is the sub-range [lo, hi) a range node's task covers.
	lo, hi int64

	frame     int // handle from execStack.alloc on frameProc's stack; noFrame if none
	frameProc int
	localBase mem.Addr

	// maxSub is the maximum priority (DAG depth) generated anywhere in this
	// task's completed subtree.  Sequenced stages start at maxSub+1 so that
	// priorities reflect depth in the computation dag, as Section 4 requires
	// ("up to T∞ different priorities"): every task of a later collection
	// ranks strictly below every task of the collections it depends on.
	maxSub int

	// Critical-path clock (unit-cost ops, Definition of T∞).
	cpIn, cpMax, cpOut int64
}

// NewEngine builds an engine over m using the given scheduler.
func NewEngine(m *machine.Machine, s Scheduler, opts Options) *Engine {
	e := &Engine{
		m:            m,
		sched:        s,
		opts:         opts,
		stealsByPrio: make(map[int]int64),
		inputs:       m.Space.Size(),
	}
	for i, p := range m.Procs {
		region := mem.Region{Base: m.Space.Alloc(stackWords), Len: stackWords}
		e.ps = append(e.ps, &procState{id: i, p: p, ctx: Ctx{proc: p, eng: e}, stack: newExecStack(region)})
	}
	e.heapStart = m.Space.Size()
	return e
}

// Run executes the computation rooted at root to completion and returns the
// collected metrics.  The root task starts on proc 0 (the paper: "initially
// the root task is given to a single core").
func (e *Engine) Run(root *Node) Result {
	if len(e.ps) == 0 {
		panic("core: engine has no procs")
	}
	r := e.newRec(root, nil, 0)
	e.rc.staged(nil, r)
	e.ps[0].cur = r
	for !e.done {
		ps := e.pickProc()
		if ps == nil {
			panic("core: deadlock — no runnable proc but computation incomplete")
		}
		e.step(ps)
	}
	return e.result()
}

// pickProc returns the runnable proc with the minimum local clock (ties by
// id), or nil if none is runnable.
func (e *Engine) pickProc() *procState {
	var best *procState
	for _, ps := range e.ps {
		runnable := ps.cur != nil || ps.dq.len() > 0 || !ps.parked
		if !runnable {
			continue
		}
		if best == nil || ps.p.Now < best.p.Now {
			best = ps
		}
	}
	return best
}

func (e *Engine) step(ps *procState) {
	if ps.cur == nil {
		if r, ok := ps.dq.popBottom(); ok {
			ps.cur = r
			if ps.dq.len() == 0 {
				e.sched.Drained(e, ps.id)
			}
		} else {
			ps.idleSince = ps.p.Now
			e.sched.Idle(e, ps.id)
			return
		}
	}
	r := ps.cur
	ps.cur = nil
	e.execute(ps, r)
}

// execute runs the head action of r on ps and either forks children, starts
// the first stage of a sequence, or completes a leaf (cascading joins).
func (e *Engine) execute(ps *procState, r *rec) {
	r.owner = ps.id
	e.pushFrame(ps, r)
	if h := e.Hooks; h != nil && h.TaskStart != nil {
		var pid int64 = -1
		if r.parent != nil {
			pid = r.parent.id
		}
		h.TaskStart(r.id, pid, r.prio, r.size(), ps.id, ps.p.Now, r.stolen)
	}
	ps.p.Op(1) // task-head bookkeeping
	ctx := ps.action(r)

	if r.node.Seq != nil {
		if r.node.Fork != nil || r.node.Range != nil {
			panic(fmt.Sprintf("core: node %q has Seq and Fork or Range", r.node.Label))
		}
		child := e.seq(ctx, r, 0)
		r.stage = 1
		stageIn := r.cpIn + ctx.actionCost + 1
		if child == nil {
			e.joinAndComplete(ps, r, stageIn)
			return
		}
		cr := e.newRec(child, r, r.prio+1)
		e.rc.staged(r, cr)
		cr.cpIn = stageIn
		r.pending = 1
		ps.cur = cr
		return
	}

	// The right child's record is made before the left's, so it has the
	// smaller task id.
	var left, right *rec
	if rg := r.node.Range; rg != nil {
		if r.node.Fork != nil || r.node.Join != nil {
			panic(fmt.Sprintf("core: range node %q has Fork or Join", r.node.Label))
		}
		if n := r.hi - r.lo; n == 1 {
			e.body(ctx, r, rg)
		} else {
			mid := r.lo + n/2
			right = e.subRange(r, mid, r.hi)
			left = e.subRange(r, r.lo, mid)
		}
	} else {
		if r.node.Fork == nil {
			panic(fmt.Sprintf("core: node %q has neither Fork, Seq nor Range", r.node.Label))
		}
		l, rn := e.fork(ctx, r)
		if rn != nil {
			right = e.newRec(rn, r, r.prio+1)
		}
		if l != nil {
			left = e.newRec(l, r, r.prio+1)
		}
		e.rc.forked(r, left, right)
	}
	headOut := r.cpIn + ctx.actionCost + 1
	switch {
	case left == nil && right == nil:
		r.cpOut = headOut
		e.complete(ps, r)
	case left != nil && right != nil:
		right.cpIn, left.cpIn = headOut, headOut
		r.pending = 2
		ps.dq.push(right)
		e.sched.Pushed(e, ps.id)
		ps.cur = left
	default:
		only := left
		if only == nil {
			only = right
		}
		only.cpIn = headOut
		r.pending = 1
		ps.cur = only
	}
}

// complete finishes r and cascades joins upward.  The executing proc — the
// last finisher — runs each parent's up-pass work; if it is not the proc that
// started the parent, that is a usurpation (Definition 4.1).
func (e *Engine) complete(ps *procState, r *rec) {
	for {
		if r.frame != noFrame {
			e.ps[r.frameProc].stack.free(r.frame)
		}
		if h := e.Hooks; h != nil && h.TaskEnd != nil {
			h.TaskEnd(r.id, ps.id, ps.p.Now)
		}
		par := r.parent
		if par == nil {
			e.done = true
			e.rootCP = r.cpOut
			return
		}
		if r.cpOut > par.cpMax {
			par.cpMax = r.cpOut
		}
		if r.maxSub > par.maxSub {
			par.maxSub = r.maxSub
		}
		par.pending--
		// Nothing refers to r any more: its children completed before it,
		// and its deque slot or proc's cur was cleared when it started.
		r.parent, e.free = e.free, r
		if par.pending > 0 {
			return // sibling outstanding; proc seeks other work next step
		}

		ctx := ps.action(par)
		ps.p.Op(1)
		if par.node.Seq != nil {
			next := e.seq(ctx, par, par.stage)
			par.stage++
			callOut := par.cpMax + ctx.actionCost + 1
			if next != nil {
				if ps.id != par.owner {
					e.usurpations++
					par.owner = ps.id // subsequent stages belong to the usurper
				}
				cr := e.newRec(next, par, par.maxSub+1)
				e.rc.staged(par, cr)
				cr.cpIn = callOut
				par.pending = 1
				ps.cur = cr
				return
			}
			ctx.actionCost = 0
			e.join(ctx, par)
			par.cpOut = callOut + ctx.actionCost
			if ps.id != par.owner {
				e.usurpations++
			}
			r = par
			continue
		}

		e.join(ctx, par)
		par.cpOut = par.cpMax + ctx.actionCost + 1
		if ps.id != par.owner {
			e.usurpations++
		}
		r = par
	}
}

// joinAndComplete handles a sequence node whose stage builder returned nil
// immediately (no stages).
func (e *Engine) joinAndComplete(ps *procState, r *rec, cpIn int64) {
	ctx := ps.action(r)
	e.join(ctx, r)
	r.cpOut = cpIn + ctx.actionCost
	e.complete(ps, r)
}

// The user's code runs in actions: the engine calls a node's Fork, Seq,
// Join and range body only through these, so that a recording sees every
// call as one action.

func (e *Engine) fork(ctx *Ctx, r *rec) (left, right *Node) {
	e.rc.begin(r, actHead)
	left, right = r.node.Fork(ctx)
	e.rc.end()
	return left, right
}

func (e *Engine) seq(ctx *Ctx, r *rec, stage int) *Node {
	e.rc.begin(r, actStage)
	next := r.node.Seq(ctx, stage)
	e.rc.end()
	return next
}

func (e *Engine) join(ctx *Ctx, r *rec) {
	if r.node.Join == nil {
		return
	}
	e.rc.begin(r, actJoin)
	r.node.Join(ctx)
	e.rc.end()
}

func (e *Engine) body(ctx *Ctx, r *rec, rg *Range) {
	e.rc.begin(r, actLeaf)
	rg.Body(ctx, r.lo)
	e.rc.end()
}

// frameWords is the size of r's stack frame: its locals, its node's pad
// and, padded, the pad of Definition 3.3.
func (e *Engine) frameWords(r *rec) int64 {
	words := int64(r.node.Locals) + int64(r.node.Pad)
	if e.opts.Padded {
		words += int64(PadFor(r.size()))
	}
	return words
}

func (e *Engine) pushFrame(ps *procState, r *rec) {
	words := e.frameWords(r)
	if words == 0 {
		r.localBase = -1
		return
	}
	frame, base := ps.stack.alloc(words)
	r.frame = frame
	r.frameProc = ps.id
	// Locals sit at the end of the frame so the pad separates them from the
	// previous frame's variables.
	r.localBase = base + words - int64(r.node.Locals)
}

func (e *Engine) newRec(n *Node, parent *rec, prio int) *rec {
	e.nextID++
	if prio > e.maxPrio {
		e.maxPrio = prio
	}
	r := e.free
	if r == nil {
		r = new(rec)
	} else {
		e.free = r.parent
	}
	// Field by field: assigning a rec literal copies the whole record and
	// pays a write barrier per pointer, a measurable share of a run.
	r.id, r.node, r.parent, r.prio = e.nextID, n, parent, prio
	r.pending, r.stage, r.owner, r.stolen = 0, 0, 0, false
	if n.Range != nil {
		r.lo, r.hi = n.Range.Lo, n.Range.Hi
	}
	r.frame, r.frameProc, r.localBase = noFrame, 0, 0
	r.maxSub = prio
	r.cpIn, r.cpMax, r.cpOut = 0, 0, 0
	return r
}

// subRange returns the record of the child of range task r covering
// [lo, hi).
func (e *Engine) subRange(r *rec, lo, hi int64) *rec {
	c := e.newRec(r.node, r, r.prio+1)
	c.lo, c.hi, c.tid = lo, hi, r.tid
	return c
}

// size returns the task size |τ| of r: its sub-range's for a range node.
func (r *rec) size() int64 {
	if rg := r.node.Range; rg != nil {
		return (r.hi - r.lo) * rg.Per
	}
	return r.node.Size
}

// action returns ps's context, reset for an action of r.
func (ps *procState) action(r *rec) *Ctx {
	ps.ctx.rec, ps.ctx.actionCost = r, 0
	return &ps.ctx
}

// --- Scheduler-facing API -------------------------------------------------

// NumProcs returns p.
func (e *Engine) NumProcs() int { return len(e.ps) }

// ProcNow returns proc v's local clock.
func (e *Engine) ProcNow(v int) int64 { return e.ps[v].p.Now }

// MissLatency returns b.
func (e *Engine) MissLatency() int64 { return e.m.Cfg.MissLatency }

// DequeHeadPrio returns the priority of the task at the head (top, oldest,
// highest priority) of v's deque.
func (e *Engine) DequeHeadPrio(v int) (prio int, ok bool) {
	r, ok := e.ps[v].dq.peekTop()
	if !ok {
		return 0, false
	}
	return r.prio, true
}

// ExecPrio returns the priority of the task proc v is about to execute, used
// for the §4.7 "imminent priority" flag: tasks v will push have priority
// ExecPrio+1.
func (e *Engine) ExecPrio(v int) (prio int, ok bool) {
	if e.ps[v].cur == nil {
		return 0, false
	}
	return e.ps[v].cur.prio, true
}

// Busy reports whether proc v currently holds work (a current task or a
// non-empty deque).
func (e *Engine) Busy(v int) bool {
	ps := e.ps[v]
	return ps.cur != nil || ps.dq.len() > 0
}

// AnyDequeNonEmpty reports whether any proc's deque holds a stealable task.
func (e *Engine) AnyDequeNonEmpty() bool {
	for _, ps := range e.ps {
		if ps.dq.len() > 0 {
			return true
		}
	}
	return false
}

// MinBusyNow returns the minimum clock among procs holding work.
func (e *Engine) MinBusyNow() (int64, bool) {
	var min int64
	found := false
	for _, ps := range e.ps {
		if ps.cur != nil || ps.dq.len() > 0 {
			if !found || ps.p.Now < min {
				min, found = ps.p.Now, true
			}
		}
	}
	return min, found
}

// Park marks proc p as waiting for the scheduler; it takes no further steps
// until a Steal assigns it work.
func (e *Engine) Park(p int) { e.ps[p].parked = true }

// Steal transfers the head task of victim's deque to thief.  eventNow is the
// simulation instant at which the steal is decided (the clock of the proc
// whose action triggered it); the thief resumes at
// max(thief.Now, eventNow) + overhead, with the gap charged as idle time and
// the overhead as steal time.  Returns false if the victim's deque is empty.
func (e *Engine) Steal(victim, thief int, eventNow, overhead int64) bool {
	v, t := e.ps[victim], e.ps[thief]
	r, ok := v.dq.stealTop()
	if !ok {
		return false
	}
	start := t.p.Now
	if eventNow > start {
		start = eventNow
	}
	t.p.Idle(start - t.p.Now)
	t.p.StealDelay(overhead)
	r.stolen = true
	e.steals++
	e.stealsByPrio[r.prio]++
	t.cur = r
	t.parked = false
	if v.dq.len() == 0 {
		e.sched.Drained(e, victim)
	}
	return true
}

// CountAttempts adds n steal attempts to the tally checked against
// Corollary 4.1.
func (e *Engine) CountAttempts(n int64) { e.attempts += n }

// ChargeSteal advances proc p's clock by d as steal overhead.
func (e *Engine) ChargeSteal(p int, d int64) { e.ps[p].p.StealDelay(d) }

// FastForward advances proc p's clock to at least t (idle time).
func (e *Engine) FastForward(p int, t int64) {
	if d := t - e.ps[p].p.Now; d > 0 {
		e.ps[p].p.Idle(d)
	}
}
