// Package lifoorder is golden-test input for the lifoorder analyzer:
// out-of-order joins of rt forks, next to the disciplined and out-of-scope
// shapes that must stay silent.
package lifoorder

import "repro/internal/rt"

// outOfOrder is the canonical violation: the older handle is joined while
// a younger fork is still open.
func outOfOrder(c *rt.Ctx) {
	h1 := c.Fork(func(*rt.Ctx) {})
	h2 := c.Fork(func(*rt.Ctx) {})
	c.Join(h1) // want "Join(h1) out of LIFO order"
	c.Join(h2)
}

// joinMiddle joins the middle of three open handles; after the report the
// remaining joins are in order and must stay silent.
func joinMiddle(c *rt.Ctx) {
	ha := c.Fork(func(*rt.Ctx) {})
	hb := c.Fork(func(*rt.Ctx) {})
	hc := c.Fork(func(*rt.Ctx) {})
	c.Join(hb) // want "Join(hb) out of LIFO order"
	c.Join(hc)
	c.Join(ha)
}

// nested is the canonical disciplined shape: silent.
func nested(c *rt.Ctx) {
	h1 := c.Fork(func(*rt.Ctx) {})
	h2 := c.Fork(func(*rt.Ctx) {})
	c.Join(h2)
	c.Join(h1)
}

// declOrder uses var declarations instead of :=, violating just the same.
func declOrder(c *rt.Ctx) {
	var h1 = c.Fork(func(*rt.Ctx) {})
	var h2 = c.Fork(func(*rt.Ctx) {})
	c.Join(h1) // want "Join(h1) out of LIFO order"
	c.Join(h2)
}

// paramHandle joins a handle that arrived as a parameter: not a tracked
// open fork, out of scope, silent.
func paramHandle(c *rt.Ctx, h rt.Handle) {
	h2 := c.Fork(func(*rt.Ctx) {})
	c.Join(h)
	c.Join(h2)
}

// containerSweep stores handles in a container and joins them by index:
// out of this analyzer's scope (fjdiscipline owns container shapes).
func containerSweep(c *rt.Ctx) {
	var hs [4]rt.Handle
	for i := range hs {
		hs[i] = c.Fork(func(*rt.Ctx) {})
	}
	for i := len(hs) - 1; i >= 0; i-- {
		c.Join(hs[i])
	}
}

// deferredJoin discharges the outer handle from a deferred closure, which
// runs in its own reversed order at return: out of scope, silent.
func deferredJoin(c *rt.Ctx) {
	h := c.Fork(func(*rt.Ctx) {})
	defer func() { c.Join(h) }()
}

// freshStacks opens a handle in the outer body while the forked closure
// runs its own correctly ordered fork-join: each literal replays against
// its own stack, so this is silent.
func freshStacks(c *rt.Ctx) {
	h := c.Fork(func(c2 *rt.Ctx) {
		inner := c2.Fork(func(*rt.Ctx) {})
		c2.Join(inner)
	})
	c.Join(h)
}

// closureViolation misorders joins inside a nested literal: the fresh
// per-literal stack must still catch it.
func closureViolation(c *rt.Ctx) {
	h := c.Fork(func(c2 *rt.Ctx) {
		a := c2.Fork(func(*rt.Ctx) {})
		b := c2.Fork(func(*rt.Ctx) {})
		c2.Join(a) // want "Join(a) out of LIFO order"
		c2.Join(b)
	})
	c.Join(h)
}

// reassigned re-forks into the same variable after joining it: every open
// interval is properly nested, silent.
func reassigned(c *rt.Ctx) {
	h := c.Fork(func(*rt.Ctx) {})
	c.Join(h)
	h = c.Fork(func(*rt.Ctx) {})
	c.Join(h)
}
