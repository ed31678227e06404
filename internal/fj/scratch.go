package fj

import "repro/internal/rt"

// local returns the Ctx of rc's worker, hung off its arena shard's Aux slot
// on first use.  On hardware a Ctx is only its rt.Ctx, itself per worker,
// so one Ctx serves every task the worker runs (RunReal, RunOn); forks keep
// no state of their own, their body and range ride in rt's pooled task
// frame (task, loop).
func local(rc *rt.Ctx) *Ctx {
	sh := rc.Scratch()
	if c, ok := sh.Aux.(*Ctx); ok {
		return c
	}
	c := &Ctx{rc: rc}
	sh.Aux = c
	return c
}

// task is a Parallel branch as an rt.Body; it ignores the range.
type task func(*Ctx)

func (b task) Run(rc *rt.Ctx, _, _ int64) { b(local(rc)) }

// loop is a ForRange body as an rt.Body: a forked right half, which the
// worker that runs it splits again.
type loop func(c *Ctx, lo, hi int64)

func (body loop) Run(rc *rt.Ctx, lo, hi int64) { local(rc).splitReal(lo, hi, body) }

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
