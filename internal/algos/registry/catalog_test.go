package registry

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

// TestCatalogOneSource holds the three derived faces of every fj kernel to
// the one description they come from: at several (n, seed) the words a sim
// Env holds, the words a real Env holds and the words each served
// generator returns are the same payload, and every served verifier accepts
// the output of both lowerings.  A catalog name is registered once and a
// served name names one kernel, though a kernel may be served under several
// (sortx is also `sort`); a simulator-only kernel has no real lowering and
// is not served.
func TestCatalogOneSource(t *testing.T) {
	pool := rt.NewPool(2, rt.Random)
	t.Cleanup(pool.Close)
	names, served := map[string]bool{}, map[string]bool{}
	nReal, nServed := 0, 0
	for _, e := range fjCatalog {
		k := e.fj
		if names[k.Name] {
			t.Errorf("%s: name registered twice", k.Name)
		}
		names[k.Name] = true
		if got, ok := Find(k.Name, Sim); !ok || got.FJ == nil || got.FJ.Desc != k.Desc {
			t.Errorf("%s/sim does not resolve to this kernel", k.Name)
		}
		_, isReal := Find(k.Name, Real)
		simOnly := len(e.inv) == 0
		if isReal == simOnly {
			t.Errorf("%s: real lowering %v with %d served names — a kernel is served exactly when it runs on hardware",
				k.Name, isReal, len(e.inv))
		}
		if simOnly != (k.Name == "spms") {
			t.Errorf("%s: simulator-only = %v, want spms alone simulator-only", k.Name, simOnly)
		}
		if !simOnly {
			nReal++
		}
		for _, inv := range e.inv {
			nServed++
			if served[inv.Name] {
				t.Errorf("%s: served name %q registered twice", k.Name, inv.Name)
			}
			served[inv.Name] = true
			if got, ok := FindInvocable(inv.Name); !ok || got.Desc != k.Desc {
				t.Errorf("%s: served name %q does not resolve to this kernel", k.Name, inv.Name)
			}
		}
		for _, n := range []int64{1, k.SimSizes[0]} {
			for _, seed := range []uint64{0, 9} {
				m := machine.New(machine.Default(2))
				sw := k.Setup(fj.NewSimEnv(m), n, seed)
				rw := k.Setup(fj.NewRealEnv(), n, seed)
				want := rw.Input()
				if !equalWords(sw.Input(), want) {
					t.Fatalf("%s n=%d seed=%d: sim and real inputs differ", k.Name, n, seed)
				}
				fj.RunSim(m, sched.NewPWS(), core.Options{}, k.InputWords(n), k.Name, sw.Root)
				if !simOnly {
					fj.RunReal(pool, rw.Root)
					if !equalWords(rw.Input(), want) {
						t.Errorf("%s n=%d seed=%d: the run wrote its input", k.Name, n, seed)
					}
				}
				for _, inv := range e.inv {
					in, err := inv.Gen(n, seed)
					if err != nil {
						t.Fatalf("%s: Gen(%d, %d): %v", inv.Name, n, seed, err)
					}
					if !equalWords(in, want) {
						t.Fatalf("%s n=%d seed=%d: served and catalog inputs differ", inv.Name, n, seed)
					}
					if !inv.Verify(in, sw.Output()) || !inv.Verify(in, rw.Output()) {
						t.Errorf("%s n=%d seed=%d: the served verifier rejects a lowering's output", inv.Name, n, seed)
					}
				}
			}
		}
	}
	if len(FJKernels()) != len(fjCatalog) || len(RealKernels()) != nReal || len(Invocables()) != nServed {
		t.Errorf("%d fj kernels, %d real kernels and %d invocables from %d catalog entries (%d real, %d served names)",
			len(FJKernels()), len(RealKernels()), len(Invocables()), len(fjCatalog), nReal, nServed)
	}
}

// TestProbesFollowPayload: the sampling verifiers draw their probe
// positions from the payload, so one wrong output entry is caught under
// some payloads of a size and missed under others — not, as with a fixed
// probe seed, missed (or caught) under every one of them.  A correct
// output verifies under all.
func TestProbesFollowPayload(t *testing.T) {
	k, _ := FindInvocable("strassen")
	const n = 16
	accepts, rejects := 0, 0
	for seed := uint64(0); seed < 64; seed++ {
		in, err := k.Gen(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := runInvocable(t, k, in)
		if !k.Verify(in, out) {
			t.Fatalf("seed %d: correct output fails verification", seed)
		}
		out[5*n+9]++
		if k.Verify(in, out) {
			accepts++
		} else {
			rejects++
		}
	}
	if accepts == 0 || rejects == 0 {
		t.Errorf("one corrupt entry under 64 payloads: %d accepts, %d rejects — the probes do not move with the payload",
			accepts, rejects)
	}
}
