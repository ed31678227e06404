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
// arena on the simulator, and recycled cache-line-aligned slabs from the
// executing worker's internal/arena shard on real hardware.  The Free hooks
// (FreeI64, FreeRuns, ...) return a slab for reuse on the real backend and
// are no-ops under the simulator, whose charge profile they leave untouched.
//
// A computation is a function func(*Ctx).  Ctx offers structured fork-join
// parallelism — Fork/Join with a LIFO join discipline, Parallel, and the
// binary-splitting parallel loops For (a body per index) and ForRange (a
// body per leaf range) — plus per-backend leaf cutoffs (Grain) so that real
// execution keeps tight inner loops while the simulator still observes a
// deep recursion.  Data lives in the typed views of view.go —
// one generic View[T] over int64, float64 and complex128, named I64, F64 and
// C128 — allocated either up front through an Env or mid-run through
// Ctx.AllocI64 and friends (per-core block-aligned allocations on the
// simulator, per-worker arena slabs on real hardware).
//
// Lowerings:
//
//   - sim.go converts the direct-style computation into a core.Node tree
//     executed by the deterministic engine under an internal/sched scheduler
//     (PWS or RWS), by running each task as an iter.Pull coroutine that
//     yields at every Fork and Join.
//   - real.go schedules the same computation on an rt.Pool under either
//     memory layout (padded or compact).
//
// Portability contract: a forked function must use only the Ctx it receives
// (never a captured outer Ctx), and joins must be LIFO — each Join targets
// the most recently forked, not-yet-joined task.  Parallel and For obey the
// discipline by construction; the sim lowering enforces it and panics on
// violations.  Kernels that want bit-identical outputs across backends must
// keep their floating-point reduction order independent of the leaf cutoff
// (see internal/algos/matmul for the pattern).
//
// The leaf idiom.  What the paper's analysis and the simulator's counters
// are about is the task tree and which task touches which word; how a
// serial leaf indexes its memory is not part of either.  So a leaf is
// written as ForRange (or the base case of a recursion) over
//
//	if raw := v.Raw(); raw != nil {
//		// real: a tight loop (or copy) over the native slices
//	} else {
//		// sim: the same loop through charged v.Get / v.Set
//	}
//
// Raw is nil exactly under the simulator, so the first branch runs at the
// speed of plain Go and the second charges every access.  The two branches
// must perform the same arithmetic on the same operands in the same order:
// the simulated run is the model of the real one only if both compute the
// same thing, and the cross-backend gate (TestCrossBackendEquality) compares
// their outputs byte for byte — a reassociated float sum, a fused
// multiply-add or a skipped ±0 in one branch fails it.  Restructuring that
// keeps each element's operation sequence (blocking, unrolling, a table of
// values the other branch computes in place) is free; anything else has to
// be argued and pinned by a bit-identity test, as internal/algos/fft and
// internal/algos/matmul do.
package fj

import (
	"repro/internal/core"
	"repro/internal/rt"
)

// Ctx is the execution context handed to every fj task.  Exactly one backend
// is active: rc on real hardware, st/sc under the simulator.
type Ctx struct {
	// Real backend: the rt worker context.
	rc *rt.Ctx

	// Sim backend: the coroutine this task runs on and the core context the
	// engine charged the current action to (refreshed at every resume).
	st   *simTask
	sc   *core.Ctx
	open int // unjoined forks, for the LIFO discipline check
}

// Real reports whether the computation is running on real hardware (true) or
// on the simulated multicore (false).
func (c *Ctx) Real() bool { return c.rc != nil }

// Grain returns the backend-appropriate leaf cutoff: sim under the
// simulator, real on hardware.  Simulator grains stay small so the model
// observes the full recursion; real grains stay large enough to amortize
// scheduling over tight serial loops.
func (c *Ctx) Grain(sim, real int64) int64 {
	if c.Real() {
		return real
	}
	return sim
}

// Op charges n units of pure computation to the simulated core's clock; on
// real hardware it is a no-op (the work is the work).
func (c *Ctx) Op(n int64) {
	if c.sc != nil {
		c.sc.Op(n)
	}
}

// Handle joins a forked task.
type Handle struct {
	rh  rt.Handle // real backend
	fr  *frame    // real backend: pooled fork frame, recycled at Join
	idx int       // sim backend: fork depth for the LIFO check
}

// Fork schedules fn as a stealable parallel task and returns its join
// handle.  The caller keeps executing; joins must be LIFO (join the most
// recent unjoined fork first) so the computation stays series-parallel —
// the shape both lowerings, and the paper's HBP model, require.  On the
// real backend the fork's bookkeeping lives in a pooled per-worker frame
// (scratch.go), so a steady-state fork allocates nothing.
func (c *Ctx) Fork(fn func(*Ctx)) Handle {
	if c.rc != nil {
		fr := c.frame()
		fr.fn = fn
		return Handle{rh: c.rc.Fork(fr.invoke), fr: fr}
	}
	return c.forkSim(fn)
}

// Join waits for a forked task to complete, helping with other work
// meanwhile (real) or closing the parallel region in the engine (sim).
func (c *Ctx) Join(h Handle) {
	if c.rc != nil {
		c.rc.Join(h.rh)
		if h.fr != nil {
			c.release(h.fr)
		}
		return
	}
	c.joinSim(h)
}

// Parallel runs a and b as parallel subtasks and returns when both finish:
// b is forked, a runs inline on the calling context — the same shape on both
// backends.
func (c *Ctx) Parallel(a, b func(*Ctx)) {
	h := c.Fork(b)
	a(c)
	c.Join(h)
}

// For runs body(c, i) for lo ≤ i < hi with parallel splitting down to grain
// (typically c.Grain(sim, real)); at or below the grain the indices run
// serially in ascending order on the calling task.  The sim lowering splits
// binarily (the balanced tree the depth measurements model); the real
// lowering descends the left spine forking right halves from pooled frames
// (splitReal in scratch.go) — same leaves, same disjoint writes, no per-split
// allocation.
func (c *Ctx) For(lo, hi, grain int64, body func(c *Ctx, i int64)) {
	if grain < 1 {
		grain = 1
	}
	if c.rc != nil {
		c.splitReal(lo, hi, grain, body, nil)
		return
	}
	if hi-lo <= grain {
		for i := lo; i < hi; i++ {
			body(c, i)
		}
		return
	}
	mid := lo + (hi-lo)/2
	c.Parallel(
		func(c *Ctx) { c.For(lo, mid, grain, body) },
		func(c *Ctx) { c.For(mid, hi, grain, body) },
	)
}

// ForRange is For with a range-bodied leaf: the same splitting of [lo, hi)
// down to grain on both backends, but each leaf calls body(c, lo, hi) once
// with its whole sub-range instead of once per index, so a real leaf pays
// one indirect call per grain and can run a tight loop over native slices.
// A body that loops "for i := lo; i < hi; i++" over charged Get/Set performs
// exactly the access sequence the equivalent For would, under the identical
// task tree — the simulator cannot tell the two apart.  An empty range calls
// nothing.
func (c *Ctx) ForRange(lo, hi, grain int64, body func(c *Ctx, lo, hi int64)) {
	if hi <= lo {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if c.rc != nil {
		c.splitReal(lo, hi, grain, nil, body)
		return
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
