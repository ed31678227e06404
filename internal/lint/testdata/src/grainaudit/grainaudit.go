// Package grainaudit is golden-test input for the grainaudit analyzer: sim
// grain cutoffs at, above, and below the smallest sweep size the golden test
// configures for this package (512), on Grain calls and on the sim grain
// of the parallel loops, plus the shapes that must stay silent —
// non-constant sim arguments, Grain methods on non-context receivers, and
// calls outside any audited package are covered by the real-repo self-run.
package grainaudit

import "repro/internal/fj"

const (
	grainSimOK  = 64
	grainSimBig = 4096
	grainReal   = 2048
)

func below(c *fj.Ctx, n int64) bool {
	return n <= c.Grain(grainSimOK, grainReal) // fine: 64 < 512
}

func atLimit(c *fj.Ctx, n int64) bool {
	return n <= c.Grain(512, grainReal) // want "sim grain 512 is at or above 512"
}

func above(c *fj.Ctx, n int64) bool {
	return n <= c.Grain(grainSimBig, grainReal) // want "sim grain 4096 is at or above 512"
}

func exprConst(c *fj.Ctx, n int64) bool {
	return n <= c.Grain(2*grainSimOK*8, grainReal) // want "sim grain 1024 is at or above 512"
}

func nonConstant(c *fj.Ctx, n, g int64) bool {
	return n <= c.Grain(g, grainReal) // fine: not statically resolvable
}

// notCtx has its own Grain method; the analyzer must key off the receiver
// type, not the method name.
type notCtx struct{}

func (notCtx) Grain(sim, real int64) int64 { return sim }

func otherGrain(n int64) bool {
	var v notCtx
	return n <= v.Grain(4096, grainReal) // fine: not a fork-join context
}

func loopFine(c *fj.Ctx, n int64) {
	c.ForRange(0, n, grainSimOK, func(*fj.Ctx, int64, int64) {}) // fine: 64 < 512
}

func loopAbove(c *fj.Ctx, n int64) {
	c.ForRange(0, n, grainSimBig, func(*fj.Ctx, int64, int64) {}) // want "sim grain 4096 is at or above 512"
}
