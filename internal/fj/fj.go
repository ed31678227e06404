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
// parallel loop ForRange, whose grain is the simulator's leaf (hardware
// splits it on demand) — plus per-backend recursion cutoffs (Grain) so that
// real execution keeps tight serial leaves while the simulator still
// observes a deep recursion.  Data lives in the typed views of view.go —
// one generic View[T] over int64, float64 and complex128 (I64, F64, C128) —
// allocated up front through an Env or mid-run through Ctx.AllocI64 and
// friends (per-core block-aligned allocations on the simulator, per-worker
// arena slabs on real hardware).
//
// Lowerings:
//
//   - sim.go runs the direct-style computation once as serial code, which
//     records its task tree and every task's accesses on a core.Tape, and
//     has the deterministic engine replay the tape under an internal/sched
//     scheduler (PWS or RWS).
//   - real.go schedules the same computation on an rt.Pool under either
//     memory layout (padded or compact).
//
// Portability contract: a forked function must use only the Ctx it receives
// (never a captured outer Ctx), and joins must be LIFO — each Join targets
// the most recently forked, not-yet-joined task.  Parallel and ForRange obey
// the discipline by construction; the sim lowering enforces it and panics on
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

import "repro/internal/rt"

// Ctx is the execution context handed to every fj task.  Exactly one backend
// is active: rc on real hardware, sim under the simulator.
type Ctx struct {
	// Real backend: the rt worker context.
	rc *rt.Ctx

	// Sim backend: the recording the task runs in, and the task's unjoined
	// forks, for the LIFO discipline check.
	sim  *simRun
	open int
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
// meanwhile (real), or closes the fork's continuation in the recording of
// the run, whose forked task has already completed (sim).
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
