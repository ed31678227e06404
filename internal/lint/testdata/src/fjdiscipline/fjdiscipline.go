// Package fjdiscipline is golden-test input for the fjdiscipline analyzer:
// every way an rt Fork can lose its Join, plus fj contexts escaping into
// raw goroutines, next to the disciplined shapes that must stay silent.
package fjdiscipline

import (
	"repro/internal/fj"
	"repro/internal/rt"
)

func discard(c *rt.Ctx) {
	c.Fork(func(*rt.Ctx) {}) // want "Fork result discarded"
}

func blank(c *rt.Ctx) {
	_ = c.Fork(func(*rt.Ctx) {}) // want "Fork result discarded"
}

func neverJoined(c *rt.Ctx) {
	h := c.Fork(func(*rt.Ctx) {}) // want "fork handle h is never passed to Join"
	_ = h
}

// proper is the canonical disciplined shape: silent.
func proper(c *rt.Ctx) {
	h := c.Fork(func(*rt.Ctx) {})
	c.Join(h)
}

// deferredJoin discharges the handle from a nested literal; the analyzer
// must see joins through closure boundaries.
func deferredJoin(c *rt.Ctx) {
	h := c.Fork(func(*rt.Ctx) {})
	defer func() { c.Join(h) }()
}

// sweep stores handles into a container and joins them all: silent.
func sweep(c *rt.Ctx) {
	var hs [4]rt.Handle
	for i := range hs {
		hs[i] = c.Fork(func(*rt.Ctx) {})
	}
	for i := len(hs) - 1; i >= 0; i-- {
		c.Join(hs[i])
	}
}

// sweepNoJoin stores handles into a container in a function with no Join
// call at all.
func sweepNoJoin(c *rt.Ctx) {
	var hs [4]rt.Handle
	for i := range hs {
		hs[i] = c.Fork(func(*rt.Ctx) {}) // want "stored into a container but this function contains no Join"
	}
}

func escapeArg(c *fj.Ctx, work func(*fj.Ctx)) {
	go work(c) // want "fork-join context passed into a raw goroutine"
}

func escapeCapture(c *fj.Ctx) {
	done := make(chan struct{})
	go func() {
		helper(c) // want "goroutine captures fork-join context c"
		close(done)
	}()
	<-done
}

// helper receives a context through a plain (non-go) call: that is fine.
func helper(*fj.Ctx) {}

var (
	_ = discard
	_ = blank
	_ = neverJoined
	_ = proper
	_ = deferredJoin
	_ = sweep
	_ = sweepNoJoin
	_ = escapeArg
	_ = escapeCapture
)
