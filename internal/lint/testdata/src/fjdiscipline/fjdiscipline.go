// Package fjdiscipline is golden-test input for the fjdiscipline analyzer:
// fj contexts escaping into raw goroutines, next to a plain call that must
// stay silent.
package fjdiscipline

import "repro/internal/fj"

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
	_ = escapeArg
	_ = escapeCapture
)
