package fj

import "repro/internal/rt"

// Real lowering: on hardware an fj computation is just the rt runtime with a
// thin adapter — Fork and Join delegate to rt.Ctx (Parallel and For are fj's
// own, built on them), view accesses index native slices.  Per-task
// bookkeeping (the adapter closure and the Ctx it hands the body) lives in
// pooled per-worker frames (scratch.go), so only the root of each Run
// allocates; the root bench_fj_test.go times each real lowering.

// RunReal executes root on the pool and blocks until it completes.
func RunReal(pool *rt.Pool, root func(*Ctx)) {
	pool.Run(func(rc *rt.Ctx) { root(&Ctx{rc: rc}) })
}

// RunOn executes root within an existing rt task context — the hook for
// callers (registry, experiments) that already hold a pool task and want to
// time or compose fj work inside it.
func RunOn(rc *rt.Ctx, root func(*Ctx)) { root(&Ctx{rc: rc}) }
