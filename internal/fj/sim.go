package fj

import (
	"iter"

	"repro/internal/core"
	"repro/internal/machine"
)

// Sim lowering: a direct-style fork-join computation becomes a core.Node
// tree the deterministic engine can execute, by running each fj task on a
// coroutine and converting its Fork/Join calls into tree structure as they
// happen.
//
// A coroutine is an iter.Pull iterator over the structural events of the
// task it runs.  The engine side stores the core.Ctx of the action it is
// charging in the task and calls next; the task side runs user code — whose
// view accesses charge that Ctx — until its next Fork or Join, which yields a
// simEvt, or until the body returns, which yields done.  next and yield
// switch directly between the two sides without a trip through the Go
// scheduler, exactly one side runs at a time, and a panic in user code
// surfaces from next on the engine side by itself — so the lowering inherits
// the engine's determinism and is race-free by construction.
//
// Tree construction mirrors the engine's own fork semantics.  The code a
// task runs while it has L unjoined forks open is its level-L *segment*, a
// sequence node:
//
//   - Fork yields with the new open count L+1: the segment's current stage
//     becomes a pair node whose right child is the forked task (pushed to
//     the deque, stealable) and whose left child is the level-(L+1) segment
//     — the same coroutine resumed past the Fork call.  This is exactly
//     rt's orientation: the owner keeps the continuation, thieves take the
//     fork.
//   - Join on the innermost open fork yields with the open count after the
//     close.  The segment whose level just fell out of scope ends (its
//     sequence returns nil); segments at outer levels see the join as
//     already satisfied — their pair node completed before they resumed —
//     and just continue.  Because the pair completes only when the forked
//     task is done, resuming past a Join always happens after the join
//     target finished; and because code after an inner Join runs as the
//     *next stage* of the enclosing segment (a sibling of the still-open
//     outer forks), it stays concurrent with them, matching the real
//     backend's schedule.
//   - Return yields done: the root segment ends.
//
// The LIFO join discipline makes every computation series-parallel, which is
// what lets a linear event stream rebuild the tree.
//
// The coroutine pool.  A coroutine outlives its task: after done it parks in
// its run's free list, and the run's next task resumes it with a new body —
// on the stack the coroutine has already grown, with its one Ctx reset.  A
// task is bound to a coroutine when the engine runs the Fork of the pair that
// forks it, so a queued task holds one, and a run starts about as many
// coroutines as it ever has tasks queued, running or waiting in a Join: a few
// per level of the task tree per core, not one per task.
//
// The nodes a coroutine owns.  The nodes that describe a task to the engine
// live on its coroutine and are reused by every task it runs: the task's root
// node, and the pair and segment nodes of each fork level L, allocated the
// first time the coroutine reaches level L.  Reuse is safe because the
// engine reads a node only while the task record running it is live, and a
// level-L node is reused only after the engine has completed the level-L
// pair that holds it: the pair completes before the resume past its Join,
// and only that resume can fork at level L again.  A coroutine parks only as
// its task's root segment ends, in the engine step that completes the root
// node, so the root node is free before the next Fork can bind it.
//
// Ending a run.  A coroutine is a goroutine, so none may outlive its run.
// When the root task returns, every other task has returned and its
// coroutine is parked: close stops them all — a parked yield reports false
// and the loop returns — leaving the run empty, so that its node can be run
// again.  A panic that unwinds the engine leaves the run's other tasks
// suspended inside yield, or bound and not yet started: teardown ends each
// of them.  stop makes a pending yield report false, which the task side
// turns into a panic with a private sentinel (runtime.Goexit would propagate
// through stop and end the engine's goroutine) that unwinds the user frames,
// deferred calls included, and is recovered at the top of the iterator
// function.  User code that recovers the sentinel itself gets it again from
// its next Fork or Join: once stopped, yield reports false without
// switching.

// simEvt is a structural event a task yields: a Fork (fn is the forked body,
// open the count of open forks including it), a Join (fn nil, open the count
// after the close), or the return of the task body (done).
type simEvt struct {
	fn   func(*Ctx)
	open int
	done bool
}

// simTask is one coroutine of a run and the fj task it is running.  It owns
// the nodes that describe that task to the engine: root starts the task, and
// levels[L-1] holds the pair and segment nodes of its level-L forks.
type simTask struct {
	run   *simRun
	cc    *core.Ctx  // the engine action the task is resumed under
	fn    func(*Ctx) // the body the next resume starts, set by bind
	ctx   Ctx        // the task's context, reset for every body
	next  func() (simEvt, bool)
	stop  func()
	yield func(simEvt) bool

	root   core.Node
	levels []*level // pointers, so the nodes keep their addresses as it grows
	free   *simTask // free-list link
}

// level holds the nodes of one fork level of a coroutine.
type level struct {
	pair, seg core.Node
	fn        func(*Ctx) // the forked body, until the pair's Fork binds it
}

// simRun holds every coroutine of one fj computation, so that a normal end
// can close them and a panic can tear them down.  All of it is touched from
// one side at a time.
type simRun struct {
	live []*simTask // every coroutine the run started, parked ones included
	free *simTask   // coroutines parked between tasks, last parked first
	root *simTask   // the coroutine of the run's root task
	dead bool       // a panic tore this run down
}

// tornDown is the panic value that unwinds a suspended task whose run was
// torn down.
type tornDown struct{}

// close ends every coroutine of the run and leaves the run empty, ready for a
// re-run.  The registry is detached first: a torn-down task unwinds user
// defers inside stop.
func (run *simRun) close() {
	live := run.live
	run.live, run.free, run.root = nil, nil, nil
	for _, st := range live {
		st.stop()
	}
}

// teardown ends every coroutine of a run whose panic is unwinding the engine
// — without it the suspended ones would outlive the computation.
func (run *simRun) teardown() {
	run.dead = true
	run.close()
}

// bind hands fn to a parked coroutine, or to a new one when none is parked.
// The body starts at the coroutine's next resume.
func (run *simRun) bind(fn func(*Ctx)) *simTask {
	st := run.free
	if st == nil {
		st = run.newTask()
	} else {
		run.free, st.free = st.free, nil
	}
	st.fn = fn
	return st
}

// park takes a coroutine whose task body returned.  The root task's return
// ends the run, which closes it; any other coroutine waits in the free list
// for the run's next task.
func (run *simRun) park(st *simTask) {
	if st == run.root {
		run.close()
		return
	}
	run.free, st.free = st, run.free
}

// newTask starts a coroutine.  It runs nothing until its first resume, and
// then runs one task body after another: after each it yields done and parks
// until bind hands it the next.
func (run *simRun) newTask() *simTask {
	st := &simTask{run: run}
	st.root = core.Node{
		Size:  1,
		Label: "fj·task",
		Seq: func(cc *core.Ctx, stage int) *core.Node {
			return nextRegion(st, cc, 0)
		},
	}
	run.live = append(run.live, st)
	st.next, st.stop = iter.Pull(func(yield func(simEvt) bool) {
		st.yield = yield
		// Once the run is dead the engine is propagating the panic that
		// killed it: drop the sentinel, and whatever a user defer raised in
		// its place, so that neither escapes stop.
		defer func() {
			if run.dead {
				recover()
			}
		}()
		for {
			c := &st.ctx
			*c = Ctx{st: st, sc: st.cc}
			fn := st.fn
			st.fn = nil
			fn(c)
			if c.open != 0 {
				panic("fj: task returned with unjoined forks")
			}
			if !yield(simEvt{done: true}) {
				return // the run was closed or torn down while parked
			}
		}
	})
	return st
}

// level returns the nodes of the task's level-L forks, allocating them the
// first time the coroutine reaches level L.  A fork opens level L only while
// level L−1 is open, so the levels are reached in order.  Every later
// level-L fork of the coroutine reuses them: the engine has completed the
// level-L pair by then, because that completion comes before the resume
// that can fork at level L again.
func (st *simTask) level(l int) *level {
	if l > len(st.levels) {
		lv := &level{}
		lv.pair = core.Node{
			Size:  1,
			Label: "fj·fork",
			Fork: func(*core.Ctx) (*core.Node, *core.Node) {
				child := st.run.bind(lv.fn)
				lv.fn = nil
				return &lv.seg, &child.root
			},
		}
		lv.seg = core.Node{
			Size:  1,
			Label: "fj·seg",
			Seq: func(cc *core.Ctx, stage int) *core.Node {
				return nextRegion(st, cc, l)
			},
		}
		st.levels = append(st.levels, lv)
	}
	return st.levels[l-1]
}

// resumeWith runs the task under the engine action cc until its next
// structural event.  A user panic comes out of next: it tears down the run's
// coroutines on its way up the engine.
func (st *simTask) resumeWith(cc *core.Ctx) simEvt {
	st.cc = cc
	unwinding := true
	defer func() {
		if unwinding {
			st.run.teardown()
		}
	}()
	evt, _ := st.next() // a coroutine ends only when its run does
	unwinding = false
	return evt
}

// suspend yields evt and parks the task until the engine resumes it —
// possibly on another simulated core, whose context replaces sc so that
// subsequent accesses charge the core actually executing.
func (c *Ctx) suspend(evt simEvt) {
	if !c.st.yield(evt) {
		panic(tornDown{})
	}
	c.sc = c.st.cc
}

// forkSim is the sim side of Ctx.Fork: yield the forked body, resume as the
// continuation.
func (c *Ctx) forkSim(fn func(*Ctx)) Handle {
	if fn == nil {
		panic("fj: Fork of a nil function") // a simEvt without fn is a Join
	}
	c.open++
	h := Handle{idx: c.open}
	c.suspend(simEvt{fn: fn, open: c.open})
	return h
}

// joinSim is the sim side of Ctx.Join.  It enforces the LIFO discipline the
// lowering (and the HBP model) requires, yields, and resumes once the joined
// fork has completed.
func (c *Ctx) joinSim(h Handle) {
	if h.idx != c.open {
		panic("fj: joins must be LIFO — join the most recent unjoined fork first")
	}
	c.open--
	c.suspend(simEvt{open: c.open})
}

// SimNode lowers fn to a core.Node executable by the engine.  size is the
// task-size hint |τ| recorded on the root (fj interior nodes are O(1)-work
// bookkeeping nodes of size 1; scheduling priority derives from dag depth,
// so the hint only informs traces and padded-stack sizing).  The node can be
// run again: every run starts from an empty coroutine pool.
func SimNode(size int64, label string, fn func(*Ctx)) *core.Node {
	run := &simRun{}
	return &core.Node{
		Size:  size,
		Label: label,
		Seq: func(cc *core.Ctx, stage int) *core.Node {
			if stage == 0 {
				run.root = run.bind(fn)
			}
			return nextRegion(run.root, cc, 0)
		},
	}
}

// nextRegion resumes the task until its level-L segment either opens a new
// parallel region (returning the pair node for the engine to run next) or
// ends (nil): the matching Join for an L-level segment, or the return of the
// body for the root segment.  Joins of deeper regions that already closed are
// satisfied inline.
func nextRegion(st *simTask, cc *core.Ctx, level int) *core.Node {
	for {
		evt := st.resumeWith(cc)
		switch {
		case evt.done:
			st.run.park(st)
			return nil // level 0 only: deeper segments are guarded by the open check
		case evt.fn != nil:
			lv := st.level(evt.open)
			lv.fn = evt.fn
			return &lv.pair
		case evt.open < level:
			return nil // this segment's fork level closed
		}
		// A Join of a deeper region, which already completed: it is free.
	}
}

// RunSim executes root as an fj computation of the given size hint on a
// fresh engine over m, under scheduler s with engine options opts, and
// returns the collected metrics.
func RunSim(m *machine.Machine, s core.Scheduler, opts core.Options, size int64, label string, root func(*Ctx)) core.Result {
	eng := core.NewEngine(m, s, opts)
	return eng.Run(SimNode(size, label, root))
}
