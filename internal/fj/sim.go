package fj

import (
	"repro/internal/core"
	"repro/internal/machine"
)

// Sim lowering: record, then replay.  A computation's task tree and each
// task's accesses do not depend on the schedule — Parallel and ForRange
// join LIFO by construction, so the computation is series-parallel, and a
// task sees only what its joined children wrote — so the simulator needs
// one record of them, made without any schedule, and core.Engine prices
// that record under any p, scheduler and padding (core.Engine.Replay).
//
// The record is made by running the computation once as plain serial code
// against a core.Writer: a fork runs the forked task to completion, then
// the caller goes on as its continuation, which the join closes.
// Views read and write the simulated memory directly, uncached, and charge
// the writer; the values the serial run computes are the outputs.  The
// scratch the run allocated is released when the recording is done, zeroed,
// so the replay — which allocates it again as the engine's actions do, and
// moves no values — and any later run on the machine find memory as they
// would have.
//
// Panics.  The first panic to leave a task is the run's: it goes on up
// through the fork that ran the task, and every later fork or join of the
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
}

// check raises the run's panic, if it has one, at a fork or join.
func (run *simRun) check() {
	if run.failed != nil {
		panic(run.failed)
	}
}

// parallelSim is Parallel under the simulator: record the fork, run b to
// completion as the forked task, then a as the continuation, and close it.
func (c *Ctx) parallelSim(a, b func(*Ctx)) {
	run := c.sim
	run.check()
	run.w.Fork()
	var child *Ctx
	if n := len(run.free); n > 0 {
		child, run.free = run.free[n-1], run.free[:n-1]
	} else {
		child = new(Ctx)
	}
	*child = Ctx{sim: run}
	run.call(child, b)
	run.free = append(run.free, child)
	run.w.Join()
	a(c)
	run.check()
	run.w.Join()
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
