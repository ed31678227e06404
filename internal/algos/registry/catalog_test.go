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
// Env holds, the words a real Env holds and the words the served generator
// returns are the same payload, and the served verifier accepts the output
// of both lowerings.  Catalog names and served names pair off one to one.
func TestCatalogOneSource(t *testing.T) {
	pool := rt.NewPool(2, rt.Random)
	t.Cleanup(pool.Close)
	names, served := map[string]bool{}, map[string]bool{}
	for _, e := range fjCatalog {
		k, inv := e.fj, e.inv
		if names[k.Name] || served[inv.Name] {
			t.Errorf("%s (served as %s): name registered twice", k.Name, inv.Name)
		}
		names[k.Name], served[inv.Name] = true, true
		if got, ok := FindInvocable(inv.Name); !ok || got.Desc != k.Desc {
			t.Errorf("%s: served name %q does not resolve to this kernel", k.Name, inv.Name)
		}
		for _, b := range []Backend{Sim, Real} {
			if got, ok := Find(k.Name, b); !ok || got.FJ == nil || got.FJ.Desc != k.Desc {
				t.Errorf("%s/%s does not resolve to this kernel", k.Name, b)
			}
		}
		for _, n := range []int64{1, k.SimSizes[0]} {
			for _, seed := range []uint64{0, 9} {
				want, err := inv.Gen(n, seed)
				if err != nil {
					t.Fatalf("%s: Gen(%d, %d): %v", k.Name, n, seed, err)
				}
				m := machine.New(machine.Default(2))
				sw := k.Setup(fj.NewSimEnv(m), n, seed)
				rw := k.Setup(fj.NewRealEnv(), n, seed)
				if !equalWords(sw.Input(), want) || !equalWords(rw.Input(), want) {
					t.Fatalf("%s n=%d seed=%d: sim, real and served inputs differ", k.Name, n, seed)
				}
				fj.RunSim(m, sched.NewPWS(), core.Options{}, k.InputWords(n), k.Name, sw.Root)
				fj.RunReal(pool, rw.Root)
				if !inv.Verify(want, sw.Output()) || !inv.Verify(want, rw.Output()) {
					t.Errorf("%s n=%d seed=%d: the served verifier rejects a lowering's output", k.Name, n, seed)
				}
				if !equalWords(rw.Input(), want) {
					t.Errorf("%s n=%d seed=%d: the run wrote its input", k.Name, n, seed)
				}
			}
		}
	}
	if len(Invocables()) != len(fjCatalog) || len(FJKernels()) != len(fjCatalog) {
		t.Errorf("%d invocables and %d fj kernels from %d catalog entries",
			len(Invocables()), len(FJKernels()), len(fjCatalog))
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
