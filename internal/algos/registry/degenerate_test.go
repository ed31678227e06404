package registry

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

// degenerateSizes is the boundary sweep per fj kernel: empty and
// single-element inputs, the real-backend leaf grain (the largest size that
// must NOT fork on hardware, from realLeaf), and the first size past it.
// Kernels with a power-of-two shape constraint substitute grain and 2·grain
// for the grain±1 pair.  The loop-only kernels have no leaf to straddle:
// they sweep 2, the first size that forks, and their loopSize.  Like
// eqSizes, every fj kernel must have an entry — a new kernel without a
// boundary sweep fails the test, not silently skips it.
var degenerateSizes = func() map[string][]int64 {
	m := make(map[string][]int64, len(realLeaf)+len(loopSize))
	for name, l := range realLeaf {
		past := l.n + 1
		if l.pow2 {
			past = 2 * l.n
		}
		m[name] = []int64{0, 1, l.n, past}
	}
	for name, n := range loopSize {
		m[name] = []int64{0, 1, 2, n}
	}
	return m
}()

// TestDegenerateInputs pins the boundary behavior of every fj kernel on
// both backends: n = 0 and n = 1 must run (nothing covered them before —
// they happened to work, this keeps it that way), and the sizes straddling
// the real leaf grain must keep the two lowerings byte-identical right
// where the real backend switches between serial leaf and forked recursion.
// Each size also goes through the kernel's served faces — generate,
// validate, Run into a fresh output, verify — which must agree word for
// word: the n ∈ {0, 1} rows are the served kernels' degenerates.  A
// simulator-only kernel runs the sim lowering alone.
func TestDegenerateInputs(t *testing.T) {
	const seed = 21
	for _, e := range fjCatalog {
		k := e.fj
		t.Run(k.Name, func(t *testing.T) {
			sizes, ok := degenerateSizes[k.Name]
			if !ok {
				t.Fatalf("no degenerate sweep for %q — add it to degenerateSizes", k.Name)
			}
			for _, n := range sizes {
				// Sim lowering on a 2-core machine under PWS.
				m := machine.New(machine.Default(2))
				sw := k.Setup(fj.NewSimEnv(m), n, seed)
				fj.RunSim(m, sched.NewPWS(), core.Options{}, max(1, k.InputWords(n)), k.Name, sw.Root)
				if !sw.Verify() {
					t.Errorf("sim: verifier failed at n=%d", n)
				}
				ref := sw.Output()
				if len(e.inv) == 0 { // simulator-only
					continue
				}

				// Real lowering on a 2-worker pool.
				rw := k.Setup(fj.NewRealEnv(), n, seed)
				pool := rt.NewPoolLayout(2, rt.LayoutPadded)
				t.Cleanup(pool.Close)
				fj.RunReal(pool, rw.Root)
				if !rw.Verify() {
					t.Errorf("real: verifier failed at n=%d", n)
				}
				if got := rw.Output(); !wordsEqual(ref, got) {
					t.Errorf("n=%d: real output differs from sim (%d vs %d words)",
						n, len(got), len(ref))
				}

				// The served faces on the same pool.
				for _, inv := range e.inv {
					in, err := inv.Gen(n, seed)
					if err != nil {
						t.Fatalf("served as %s: Gen(%d): %v", inv.Name, n, err)
					}
					if err := inv.Validate(in); err != nil {
						t.Fatalf("served as %s: generated payload rejected at n=%d: %v", inv.Name, n, err)
					}
					out := make([]int64, inv.OutLen(in))
					fj.RunReal(pool, func(c *fj.Ctx) { inv.Run(c, in, out) })
					if !inv.Verify(in, out) || !wordsEqual(ref, out) {
						t.Errorf("served as %s: output at n=%d fails verification or differs from sim", inv.Name, n)
					}
				}
			}
		})
	}
}
