package fj

import (
	"repro/internal/arena"
	"repro/internal/rt"
)

// Real-lowering scratch machinery.  Two pools hang off the executing
// worker's arena shard (rt.Ctx.Scratch), both strictly worker-local:
//
//   - fork frames: the closure that adapts an fj task body to the rt task
//     signature, plus the small Ctx it hands the body.  Binding them once
//     per frame and recycling frames after their join makes Parallel and
//     ForRange allocation-free in the steady state — previously every fork
//     heap-allocated a wrapper closure and a Ctx.
//   - view spans ([]I64 run lists): the sort kernels build and discard run
//     lists at every merge level; AllocRuns/FreeRuns recycle them the same
//     way AllocI64/FreeI64 recycle element slabs, through an arena.Pool
//     attached to the shard's group, so its free lists are bounded and
//     share one spill like the shard's own.
//
// A frame is reused only after the join of its fork returns, which the rt
// done-flag acquire orders after everything its task wrote — so handing the
// frame to the next fork on this worker can never race with a thief that
// executed the previous one.
type wlocal struct {
	frames *frame
	spans  arena.Pool[I64]
}

// local returns the per-worker fj pools, installing them in the shard's Aux
// slot on first use.  Real backend only.
func (c *Ctx) local() *wlocal {
	sh := c.rc.Scratch()
	if l, ok := sh.Aux.(*wlocal); ok {
		return l
	}
	l := &wlocal{}
	arena.Attach(sh, &l.spans)
	sh.Aux = l
	return l
}

// frame is one pooled fork: either a plain task body (fn) or a ForRange
// range (lo/hi with its body), and the rt task it was forked as (rh).
// invoke is the rt-shaped entry bound to this frame once at construction,
// and ctx is the fj context the executing worker fills in — both live here
// precisely so the fork path allocates nothing.
type frame struct {
	fn     func(*Ctx)
	lo, hi int64
	body   func(*Ctx, int64, int64)
	rh     rt.Handle
	ctx    Ctx
	invoke func(*rt.Ctx)
	next   *frame // free-list link, owner-only
}

func (fr *frame) run(rc *rt.Ctx) {
	fr.ctx = Ctx{rc: rc}
	if fr.fn != nil {
		fr.fn(&fr.ctx)
		return
	}
	fr.ctx.splitReal(fr.lo, fr.hi, fr.body)
}

// frame pops a free frame from the worker's pool (or builds one, binding
// invoke exactly once).
func (c *Ctx) frame() *frame {
	l := c.local()
	fr := l.frames
	if fr == nil {
		fr = &frame{}
		fr.invoke = fr.run
	} else {
		l.frames = fr.next
		fr.next = nil
	}
	return fr
}

// release returns a joined frame to the executing worker's pool, dropping
// the body and task references so the pool retains no caller state.
func (c *Ctx) release(fr *frame) {
	fr.fn, fr.body, fr.rh = nil, nil, rt.Handle{}
	l := c.local()
	fr.next = l.frames
	l.frames = fr
}

// splitReal is the real lowering of ForRange: lazy binary splitting
// (Tzannes et al., PPoPP 2010), with no machine parameter.  The range runs
// from the left in chunks: first one index, then twice the last chunk if
// that one did not split, capped at a quarter of what remains.  Before each
// chunk, if the worker's deque is empty, the right half of what remains is
// forked as one pooled frame (a contiguous range sharing at most two
// boundary blocks with its siblings).  The forks join in LIFO order; each
// halves the range, so 64 slots do.  A chunk's panic, or a fork's raised
// at its join, joins the forks still outstanding before it leaves.
func (c *Ctx) splitReal(lo, hi int64, body func(*Ctx, int64, int64)) {
	var hs [64]*frame
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
			fr := c.frame()
			fr.lo, fr.hi, fr.body = lo+(hi-lo)/2, hi, body
			fr.rh = c.rc.Fork(fr.invoke)
			hs[nh] = fr
			nh++
			hi = fr.lo
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
		c.rc.Join(hs[nh].rh)
		c.release(hs[nh])
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
	return c.local().spans.Get(n)
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
	c.local().spans.Put(s)
}
