package fj

import (
	"repro/internal/core"
	"repro/internal/machine"
)

// Sim lowering: record, then replay.  A computation's task tree and each
// task's accesses do not depend on the schedule — the joins are LIFO, so
// the computation is series-parallel, and a task sees only what its joined
// children wrote — so the simulator needs one record of them, made without
// any schedule, and core.Engine prices that record under any p, scheduler
// and padding (core.Engine.Replay).
//
// The record is made by running the computation once as plain serial code
// against a core.Writer: Fork runs the forked task to completion, then the
// caller goes on as the fork's continuation; Join closes the continuation.
// Views read and write the simulated memory directly, uncached, and charge
// the writer; the values the serial run computes are the outputs.  The
// scratch the run allocated is released when the recording is done, zeroed,
// so the replay — which allocates it again as the engine's actions do, and
// moves no values — and any later run on the machine find memory as they
// would have.
//
// Panics.  The first panic to leave a task is the run's: it goes on up
// through the Fork that ran the task, and every later Fork or Join of the
// run raises it again, so a caller that recovers it cannot go on as if the
// task had run.  Whatever ends the run, the recording raises that panic.

// simRun is the state of one recording.
type simRun struct {
	w      *core.Writer
	failed any    // the run's first panic
	free   []*Ctx // contexts of returned tasks, for the next forks
}

// call runs fn as a task under c and keeps its panic if it is the run's
// first.
func (run *simRun) call(c *Ctx, fn func(*Ctx)) {
	defer func() {
		if run.failed == nil {
			if r := recover(); r != nil {
				run.failed = r
				panic(r)
			}
		}
	}()
	fn(c)
	if c.open != 0 {
		panic("fj: task returned with unjoined forks")
	}
}

// check raises the run's panic, if it has one, at a Fork or Join.
func (run *simRun) check() {
	if run.failed != nil {
		panic(run.failed)
	}
}

// forkSim is the sim side of Ctx.Fork: record the fork, run the forked
// task, and go on as the continuation.
func (c *Ctx) forkSim(fn func(*Ctx)) Handle {
	run := c.sim
	run.check()
	c.open++
	run.w.Fork()
	var child *Ctx
	if n := len(run.free); n > 0 {
		child, run.free = run.free[n-1], run.free[:n-1]
	} else {
		child = new(Ctx)
	}
	*child = Ctx{sim: run}
	run.call(child, fn)
	run.free = append(run.free, child)
	run.w.Join()
	return Handle{idx: c.open}
}

// joinSim is the sim side of Ctx.Join.  It enforces the LIFO discipline the
// lowering (and the HBP model) requires, and closes the continuation.
func (c *Ctx) joinSim(h Handle) {
	c.sim.check()
	if h.idx != c.open {
		panic("fj: joins must be LIFO — join the most recent unjoined fork first")
	}
	c.open--
	c.sim.w.Join()
}

// record runs fn serially over m and returns its tape.  size is the
// task-size hint |τ| of the root (fj interior nodes are O(1)-work
// bookkeeping nodes of size 1; scheduling priority derives from dag depth,
// so the hint only informs traces and padded-stack sizing).
func record(m *machine.Machine, size int64, label string, fn func(*Ctx)) *core.Tape {
	run := &simRun{w: core.NewWriter(m.Space, size, label)}
	defer m.Space.Release(m.Space.Size())
	defer func() {
		if run.failed != nil {
			recover()
			panic(run.failed)
		}
	}()
	run.call(&Ctx{sim: run}, fn)
	run.w.Join()
	return run.w.Tape()
}

// SimNode lowers fn, run over the inputs m holds, to the root of its
// replay.  The engine that runs the node must be built on m afterwards.
func SimNode(m *machine.Machine, size int64, label string, fn func(*Ctx)) *core.Node {
	return record(m, size, label, fn).Root()
}

// RunSim executes root as an fj computation of the given size hint on a
// fresh engine over m, under scheduler s with engine options opts, and
// returns the collected metrics.
func RunSim(m *machine.Machine, s core.Scheduler, opts core.Options, size int64, label string, root func(*Ctx)) core.Result {
	t := record(m, size, label, root)
	return core.NewEngine(m, s, opts).Replay(t)
}
