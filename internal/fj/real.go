package fj

import "repro/internal/rt"

// Real lowering: on hardware an fj computation is just the rt runtime with a
// thin adapter — Parallel and ForRange fork func-typed rt.Bodys (task and
// loop, scratch.go) into rt's pooled task frames and join through rt.Ctx,
// view accesses index native slices.  Every task gets its worker's one Ctx,
// so only the root of each Run allocates; bench_fj_test.go times each real
// lowering.

// RunReal executes root on the pool and blocks until it completes or panics.
func RunReal(pool *rt.Pool, root func(*Ctx)) {
	pool.Run(func(rc *rt.Ctx) { root(local(rc)) })
}

// RunOn executes root within an existing rt task context — the hook for
// callers (registry, experiments) that already hold a pool task and want to
// time or compose fj work inside it.
func RunOn(rc *rt.Ctx, root func(*Ctx)) { root(local(rc)) }

// joinUnwinding joins h's task while a panic of the joiner's unwinds, so
// the task ends before that panic leaves its Parallel or ForRange.  The
// task's own panic, if any, is dropped: the unwinding one is the one raised.
func (c *Ctx) joinUnwinding(h rt.Handle) {
	defer func() { recover() }()
	c.rc.Join(h)
}
