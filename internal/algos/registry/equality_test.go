package registry

import (
	"math"
	"testing"

	"repro/internal/algos/fft"
	"repro/internal/algos/mat"
	"repro/internal/algos/matmul"
	"repro/internal/algos/scan"
	"repro/internal/algos/sortx"
	"repro/internal/algos/spms"
	"repro/internal/algos/strassen"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

// realLeaf gives, per recursive fj kernel, the largest size parameter its
// real lowering still runs as one serial leaf — read off the kernel's
// exported grain constant, so a re-tuned grain moves the gates below with
// it — and whether the size parameter must be a power of two.  gather and
// listrank are not here: they are parallel loops with no real leaf
// (listrank's real grain is its ruler spacing, not a serial cutoff: its
// node map forks at every n ≥ 2 like gather's, since fj.Ctx.ForRange splits
// on demand and at p = 1 the empty deque makes the first split certain), so
// the gates give them fixed sizes (loopSize).  transpose's real leaf is a
// 64×64 tile, so its gate is side 128: ~0.02 s in TestCrossBackendEquality
// (~0.13 s under -race).  spms has no real lowering in the registry; its
// real grain sizes only its sim arms, at which the sim recursion runs
// several SPMS levels.
var realLeaf = map[string]struct {
	n    int64
	pow2 bool
}{
	"matmul":    {matmul.GrainReal, true},
	"strassen":  {strassen.FJGrainReal, true},
	"sortx":     {sortx.FJSortGrainReal, false},
	"spms":      {spms.FJSortGrainReal, false},
	"scan":      {scan.FJPrefixGrainReal, false},
	"fft":       {fft.FJFFTGrainReal, true},
	"transpose": {int64(math.Sqrt(mat.FJTGrainReal)), false}, // the grain is a leaf area
}

// loopSize is the gate size of the loop-only kernels (see realLeaf).
var loopSize = map[string]int64{"gather": 4096, "listrank": 4096}

// eqSizes picks the gate size per kernel: twice the kernel's *real* leaf
// grain, so the real lowering actually forks (TestCrossBackendEquality
// asserts it does) while a simulated run at the same size stays affordable;
// loopSize for the loop-only kernels.  The registry's SimSizes are below
// these on purpose — they size hbptrace defaults, not this gate.
var eqSizes = func() map[string]int64 {
	m := make(map[string]int64, len(realLeaf)+len(loopSize))
	for name, l := range realLeaf {
		m[name] = 2 * l.n
	}
	for name, n := range loopSize {
		m[name] = n
	}
	// sortx's real merge grain is above its sort grain: past both, the top
	// merge splits on a merge path as well.
	m["sortx"] = 2 * max(sortx.FJSortGrainReal, sortx.FJMergeGrainReal)
	return m
}()

// TestCrossBackendEquality is the single-source gate of the fj refactor:
// every fj-unified kernel runs on seeded inputs through BOTH lowerings —
// the simulated multicore under PWS and RWS, and the real rt runtime under
// the padded and compact layouts at several worker counts — and every run
// must produce byte-identical output words.  The kernels are built for
// this (exact integer arithmetic, or cutoff-invariant floating-point
// reduction orders), so any divergence is a lowering bug, not noise.  A
// simulator-only kernel runs the sim arms alone.
func TestCrossBackendEquality(t *testing.T) {
	const seed = 42
	for _, k := range FJKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			n, ok := eqSizes[k.Name]
			if !ok {
				t.Fatalf("no equality-gate size for %q — add it to eqSizes", k.Name)
			}

			// Reference: the sim lowering under PWS on 4 simulated cores.
			ref := runSimOnce(t, k, n, seed, "pws")
			if rws := runSimOnce(t, k, n, seed, "rws"); !wordsEqual(ref, rws) {
				t.Errorf("sim PWS and sim RWS outputs differ at n=%d", n)
			}
			if _, ok := Find(k.Name, Real); !ok {
				return
			}

			for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
				for _, p := range []int{1, 2, 4} {
					env := fj.NewRealEnv()
					w := k.Setup(env, n, seed)
					pool := rt.NewPoolLayout(p, layout)
					t.Cleanup(pool.Close)
					fj.RunReal(pool, w.Root)
					if pool.Executed() <= 1 {
						t.Errorf("real %s p=%d: no forks at n=%d — the gate is not exercising the parallel path",
							layout, p, n)
					}
					if !w.Verify() {
						t.Errorf("real %s p=%d: verifier failed at n=%d", layout, p, n)
					}
					if got := w.Output(); !wordsEqual(ref, got) {
						t.Errorf("real %s p=%d: output differs from sim at n=%d (%d words)",
							layout, p, n, len(got))
					}
				}
			}
		})
	}
}

func runSimOnce(t *testing.T, k FJKernel, n int64, seed uint64, schedName string) []int64 {
	t.Helper()
	var s core.Scheduler = sched.NewPWS()
	if schedName == "rws" {
		s = sched.NewRWS(12345)
	}
	m := machine.New(machine.Default(4))
	w := k.Setup(fj.NewSimEnv(m), n, seed)
	fj.RunSim(m, s, core.Options{}, k.InputWords(n), k.Name, w.Root)
	if !w.Verify() {
		t.Errorf("sim %s: verifier failed at n=%d", schedName, n)
	}
	return w.Output()
}

func wordsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
