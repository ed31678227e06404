package fj

import (
	"repro/internal/arena"
	"repro/internal/rt"
)

// Real-lowering per-worker state, hung off the executing worker's arena
// shard (rt.Ctx.Scratch) and strictly worker-local.  Forks keep none: their
// body and range ride in rt's pooled task frame (task, loop).
//
//   - the worker's Ctx: on hardware a Ctx is only its rt.Ctx, itself per
//     worker, so one Ctx serves every task the worker runs (RunReal, RunOn).
//   - view spans ([]I64 run lists): the sort kernels build and discard run
//     lists at every merge level; AllocRuns/FreeRuns recycle them the same
//     way AllocI64/FreeI64 recycle element slabs, through an arena.Pool
//     attached to the shard's group, so its free lists are bounded and
//     share one spill like the shard's own.
type wlocal struct {
	ctx   Ctx
	spans arena.Pool[I64]
}

// local returns the fj state of rc's worker, installing it in the shard's
// Aux slot on first use.
func local(rc *rt.Ctx) *wlocal {
	sh := rc.Scratch()
	if l, ok := sh.Aux.(*wlocal); ok {
		return l
	}
	l := &wlocal{ctx: Ctx{rc: rc}}
	arena.Attach(sh, &l.spans)
	sh.Aux = l
	return l
}

// task is a Parallel branch as an rt.Body; it ignores the range.
type task func(*Ctx)

func (b task) Run(rc *rt.Ctx, _, _ int64) { b(&local(rc).ctx) }

// loop is a ForRange body as an rt.Body: a forked right half, which the
// worker that runs it splits again.
type loop func(c *Ctx, lo, hi int64)

func (body loop) Run(rc *rt.Ctx, lo, hi int64) { local(rc).ctx.splitReal(lo, hi, body) }

// splitReal is the real lowering of ForRange: lazy binary splitting
// (Tzannes et al., PPoPP 2010), with no machine parameter.  The range runs
// from the left in chunks: first one index, then twice the last chunk if
// that one did not split, capped at a quarter of what remains.  Before each
// chunk, if the worker's deque is empty, the right half of what remains is
// forked as one rt task frame (a contiguous range sharing at most two
// boundary blocks with its siblings).  The forks join in LIFO order; each
// halves the range, so 64 slots do.  A chunk's panic, or a fork's raised
// at its join, joins the forks still outstanding before it leaves.
func (c *Ctx) splitReal(lo, hi int64, body loop) {
	var hs [64]rt.Handle
	nh := 0
	defer func() {
		for nh > 0 { // reached with forks outstanding only on a panic
			nh--
			c.joinUnwinding(hs[nh])
		}
	}()
	for chunk := int64(1); lo < hi; {
		split := hi-lo > 1 && c.rc.DequeEmpty()
		if split {
			mid := lo + (hi-lo)/2
			hs[nh] = c.rc.ForkRange(body, mid, hi)
			nh++
			hi = mid
		}
		chunk = min(chunk, max(1, (hi-lo)/4))
		body(c, lo, lo+chunk)
		lo += chunk
		if !split {
			chunk *= 2
		}
	}
	for nh > 0 {
		nh--
		c.rc.Join(hs[nh])
	}
}

// AllocRuns returns a zeroed span of n I64 views from the worker's span
// pool (a plain make under the simulator, where run lists are uncharged
// local state).  Pair with FreeRuns when the span is dead; spans, like
// element slabs, are recycled LIFO.
func (c *Ctx) AllocRuns(n int64) []I64 {
	if c.rc == nil {
		return make([]I64, n)
	}
	return local(c.rc).spans.Get(n)
}

// FreeRuns releases a span obtained from AllocRuns.  The full capacity is
// cleared before pooling so recycled spans come back zeroed and the pool
// never retains the caller's views (or the slabs they point to).  No-op
// under the simulator.
func (c *Ctx) FreeRuns(s []I64) {
	if c.rc == nil || s == nil {
		return
	}
	s = s[:cap(s)]
	clear(s)
	local(c.rc).spans.Put(s)
}
