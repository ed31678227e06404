// Package fj is the backend-neutral fork-join frontend: an algorithm written
// once against fj.Ctx and the typed views of this package runs unchanged on
// the simulated multicore of internal/machine (where every element access is
// charged through the cache and coherence model) and on real hardware via the
// internal/rt work-stealing runtime (where the same accesses compile to
// native slice indexing).  This makes the program text itself resource
// oblivious, the paper's thesis applied to the repo: one kernel source earns
// its measurements on both machines.
//
// Mid-run scratch follows the same discipline on both backends: AllocI64 and
// friends draw charged, block-aligned allocations from the executing core's
// arena on the simulator, and recycled cache-line-aligned word slabs from the
// executing worker's internal/arena shard on real hardware, one pool for
// every element type (a complex128 scratch of n elements is a slab of 2n
// words).  The Free hooks (FreeI64, FreeC128) return the view's word image
// to that pool on the real backend and are no-ops under the simulator,
// whose charge profile they leave untouched.
//
// A computation is a function func(*Ctx).  Ctx offers structured fork-join
// parallelism and nothing else — Parallel(a, b) and the parallel loop
// ForRange, whose grain is the simulator's leaf (hardware splits it on
// demand) — so a computation is series-parallel by construction, the HBP
// shape the paper's analysis and both lowerings assume: no program can
// state an out-of-order join or a fork that outlives its call.  Per-backend
// recursion cutoffs (Grain) let real execution keep tight serial leaves
// while the simulator still observes a deep recursion.  Data lives in the
// typed views of view.go — one generic View[T] over int64, float64 and
// complex128 (I64, F64, C128) — allocated up front through an Env or
// mid-run through Ctx.AllocI64 and friends.
//
// Lowerings:
//
//   - sim.go runs the direct-style computation once as serial code, which
//     records its task tree and every task's accesses on a core.Tape, and
//     has the deterministic engine replay the tape under an internal/sched
//     scheduler (PWS or RWS).
//   - real.go schedules the same computation on an rt.Pool under either
//     memory layout (padded or compact); a fork is one pooled rt task
//     frame carrying its body and range, so forking allocates nothing
//     once the worker's frames are warm.
//
// Portability contract: a forked function must use only the Ctx it receives
// (never a captured outer Ctx).  Kernels that want bit-identical outputs
// across backends must keep their floating-point reduction order
// independent of the leaf cutoff (see internal/algos/matmul for the
// pattern).  Panics, on both lowerings: a task's panic goes through its
// join to the caller of RunSim or RunReal, value unchanged.  On hardware a
// Parallel or ForRange joins its outstanding forks before a panic leaves
// it (a fork's own panic met there is dropped), so no task of the
// computation runs after RunReal has raised.  A program must not recover a
// panic and go on: the sim lowering raises it again at every later fork
// and join.  The real lowering joins each rt fork once, from the task
// that made it, and rt checks that where it is discharged: a repeated Join
// panics, and a task that returns with a fork unjoined raises "rt: task
// returned with unjoined forks", so a lowering that broke the shape would
// fail loudly rather than hang or join another fork.
//
// The leaf idiom.  What the paper's analysis and the simulator's counters
// are about is the task tree and which task touches which word; how a
// serial leaf indexes its memory is not part of either.  A leaf (a
// ForRange body, or a recursion's base case) that copies or sums a range
// calls the bulk ops of ops.go (Copy, Sum, Prefix), which carry both
// lowerings; other leaves loop through v.Get and v.Set.  View.Raw, nil
// exactly under the simulator, is for a hardware leaf that is a different
// algorithm or loop order than the charged one (a radix sort, a twiddle
// table, a blocked store order), pinned by a bit-identity or order test,
// and for a hot elementwise loop one kernel owns (strassen's operand sums,
// gather's leaf, listrank's maps), written twice as the same loop because
// Get/Set costs such a kernel up to 2.9× on hardware (ops.go).  Both
// branches must compute the same output: the simulated run models the real
// one only if both compute the same thing, and TestCrossBackendEquality
// compares their outputs byte for byte — a reassociated float sum, a fused
// multiply-add or a skipped ±0 in one branch fails it.  Restructuring that
// keeps each element's operation sequence (blocking, unrolling, a table of
// values the other branch computes in place) is free; anything else has to
// be argued and pinned by a bit-identity test, as internal/algos/fft and
// internal/algos/matmul do.
package fj

import "repro/internal/rt"

// Ctx is the execution context handed to every fj task; it forks only
// through Parallel and ForRange.  Exactly one backend is active: rc on real
// hardware, sim under the simulator.
type Ctx struct {
	// Real backend: the rt worker context.
	rc *rt.Ctx

	// Sim backend: the recording the task runs in.
	sim *simRun
}

// Real reports whether the computation is running on real hardware (true) or
// on the simulated multicore (false).
func (c *Ctx) Real() bool { return c.rc != nil }

// Grain returns the backend-appropriate recursion cutoff: sim under the
// simulator, real on hardware.  Simulator grains stay small so the model
// observes the full recursion; a real grain picks a serial leaf algorithm.
// Parallel loops take no real grain (see ForRange).
func (c *Ctx) Grain(sim, real int64) int64 {
	if c.Real() {
		return real
	}
	return sim
}

// Op charges n units of pure computation to the simulated core's clock; on
// real hardware it is a no-op (the work is the work).
func (c *Ctx) Op(n int64) {
	if c.sim != nil {
		c.sim.w.Op(n)
	}
}

// Parallel runs a and b as parallel subtasks and returns when both finish:
// b is forked, a runs inline on the calling context — the same shape on both
// backends.  On hardware, if a panics, b is joined before the panic leaves
// Parallel, and a panic of b's is dropped.
func (c *Ctx) Parallel(a, b func(*Ctx)) {
	if c.rc == nil {
		c.parallelSim(a, b)
		return
	}
	h := c.rc.ForkRange(task(b), 0, 0)
	joined := false
	defer func() {
		if !joined {
			c.joinUnwinding(h)
		}
	}()
	a(c)
	joined = true
	c.rc.Join(h)
}

// ForRange runs body(c, lo', hi') over disjoint sub-ranges that cover
// [lo, hi) in parallel: the one parallel loop, the balanced-parallel tree
// of the paper's HBP computations.  grain is the simulator's leaf: the sim
// lowering splits binarily down to it (the balanced tree the depth
// measurements model) and calls body once per leaf.  Hardware splits on
// demand (splitReal in scratch.go), forking a right half only when the
// worker's deque is empty — the same disjoint writes from fewer tasks, no
// per-split allocation — and a real chunk pays one indirect call, so it can
// run a tight loop over native slices.  A body that loops
// "for i := lo; i < hi; i++" sees its indices in ascending order on one
// task.  An empty range calls nothing.
func (c *Ctx) ForRange(lo, hi, grain int64, body func(c *Ctx, lo, hi int64)) {
	if c.rc != nil {
		c.splitReal(lo, hi, body)
		return
	}
	if hi <= lo {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if hi-lo <= grain {
		body(c, lo, hi)
		return
	}
	mid := lo + (hi-lo)/2
	c.Parallel(
		func(c *Ctx) { c.ForRange(lo, mid, grain, body) },
		func(c *Ctx) { c.ForRange(mid, hi, grain, body) },
	)
}
