package fj

import (
	"iter"

	"repro/internal/core"
	"repro/internal/machine"
)

// Sim lowering: a direct-style fork-join computation becomes a core.Node
// tree the deterministic engine can execute, by running each fj task as a
// coroutine and converting its Fork/Join calls into tree structure as they
// happen.
//
// The coroutine is an iter.Pull iterator over the task's structural events.
// The engine side stores the core.Ctx of the action it is charging in the
// task and calls next; the task side runs user code — whose view accesses
// charge that Ctx — until its next Fork or Join, which yields a simEvt, or
// until it returns, which ends the sequence (next reports false).  next and
// yield switch directly between the two sides without a trip through the Go
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
//   - Return ends the event sequence: the root segment ends.
//
// The LIFO join discipline makes every computation series-parallel, which is
// what lets a linear event stream rebuild the tree.
//
// Teardown.  A panic that unwinds the engine leaves the run's other tasks
// suspended inside yield, and a suspended coroutine is a goroutine: stop ends
// each of them.  stop makes the pending yield report false, which the task
// side turns into a panic with a private sentinel (runtime.Goexit would
// propagate through stop and end the engine's goroutine) that unwinds the
// user frames, deferred calls included, and is recovered at the top of the
// iterator function.  User code that recovers the sentinel itself gets it
// again from its next Fork or Join: once stopped, yield reports false without
// switching.

// simEvt is a structural event a task yields: a Fork (fn is the forked body,
// open the count of open forks including it) or a Join (fn nil, open the
// count after the close).
type simEvt struct {
	fn   func(*Ctx)
	open int
}

// simTask is the coroutine of one running fj task.
type simTask struct {
	run   *simRun
	cc    *core.Ctx // the engine action the task is resumed under
	next  func() (simEvt, bool)
	stop  func()
	yield func(simEvt) bool
}

// simRun tracks every live coroutine of one fj computation so a panic can
// tear them all down.  All of it is touched from one side at a time.
type simRun struct {
	live map[*simTask]struct{}
	dead bool // a panic tore this run down
}

// tornDown is the panic value that unwinds a suspended task whose run was
// torn down.
type tornDown struct{}

// teardown ends every still-suspended coroutine of the run — without it they
// would outlive the computation whose panic unwound the engine.  The registry
// is detached first: the tasks unwind user defers inside stop.
func (run *simRun) teardown() {
	run.dead = true
	live := run.live
	run.live = map[*simTask]struct{}{}
	for st := range live {
		st.stop()
	}
}

// startSimTask creates the coroutine for fn.  It runs nothing until the first
// resume.
func startSimTask(run *simRun, fn func(*Ctx)) *simTask {
	st := &simTask{run: run}
	run.live[st] = struct{}{}
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
		c := &Ctx{st: st, sc: st.cc}
		fn(c)
		if c.open != 0 {
			panic("fj: task returned with unjoined forks")
		}
	})
	return st
}

// resumeWith runs the task under the engine action cc until its next
// structural event; ok is false when it returned instead.  A user panic
// comes out of next: it tears down the run's other coroutines on its way up
// the engine.
func (st *simTask) resumeWith(cc *core.Ctx) (evt simEvt, ok bool) {
	st.cc = cc
	unwinding := true
	defer func() {
		if !ok {
			delete(st.run.live, st) // returned or panicked: this coroutine is gone
		}
		if unwinding {
			st.run.teardown()
		}
	}()
	evt, ok = st.next()
	unwinding = false
	return evt, ok
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
// so the hint only informs traces and padded-stack sizing).
func SimNode(size int64, label string, fn func(*Ctx)) *core.Node {
	return simNode(&simRun{live: map[*simTask]struct{}{}}, size, label, fn)
}

// simNode builds the node for one task of an existing run (the root gets a
// fresh run from SimNode; forked tasks share their forker's).
func simNode(run *simRun, size int64, label string, fn func(*Ctx)) *core.Node {
	var st *simTask
	return &core.Node{
		Size:  size,
		Label: label,
		Seq: func(cc *core.Ctx, stage int) *core.Node {
			if stage == 0 {
				st = startSimTask(run, fn)
			}
			return nextRegion(st, cc, 0)
		},
	}
}

// segmentNode is the level-L segment of a suspended task: the code it runs
// while its L-th fork is its innermost open fork, as a sequence of parallel
// regions.
func segmentNode(st *simTask, level int) *core.Node {
	return &core.Node{
		Size:  1,
		Label: "fj·seg",
		Seq: func(cc *core.Ctx, stage int) *core.Node {
			return nextRegion(st, cc, level)
		},
	}
}

// nextRegion resumes the task until its level-L segment either opens a new
// parallel region (returning the pair node for the engine to run next) or
// ends (nil): the matching Join for an L-level segment, or return for the
// root.  Joins of deeper regions that already closed are satisfied inline.
func nextRegion(st *simTask, cc *core.Ctx, level int) *core.Node {
	for {
		evt, ok := st.resumeWith(cc)
		switch {
		case !ok:
			return nil // root only: deeper segments are guarded by the open check
		case evt.fn != nil:
			return pairNode(st, evt.fn, evt.open)
		case evt.open < level:
			return nil // this segment's fork level closed
		}
		// A Join of a deeper region, which already completed: it is free.
	}
}

// pairNode is the parallel region opened by a just-yielded level-L fork:
// the right child is the forked task (pushed to the deque, stealable), the
// left child is the forking task's level-L segment — the code after the
// Fork call, running concurrently with the forked task until the matching
// Join.  The pair completes when both are done, which is what lets the
// enclosing segment resume past the Join.
func pairNode(st *simTask, fn func(*Ctx), level int) *core.Node {
	return &core.Node{
		Size:  1,
		Label: "fj·fork",
		Fork: func(*core.Ctx) (*core.Node, *core.Node) {
			return segmentNode(st, level), simNode(st.run, 1, "fj·task", fn)
		},
	}
}

// RunSim executes root as an fj computation of the given size hint on a
// fresh engine over m, under scheduler s with engine options opts, and
// returns the collected metrics.
func RunSim(m *machine.Machine, s core.Scheduler, opts core.Options, size int64, label string, root func(*Ctx)) core.Result {
	eng := core.NewEngine(m, s, opts)
	return eng.Run(SimNode(size, label, root))
}
