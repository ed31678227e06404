package registry

import (
	"math"
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

// TestProbesFollowPayload: the sampling verifier (fft's; strassen's checks
// every entry, see TestStrassenVerifierRejectsFlips) draws its probe
// positions from the payload, so one wrong output entry is caught under
// some payloads of a size and missed under others — not, as with a fixed
// probe seed, missed (or caught) under every one of them.  A correct
// output verifies under all.
func TestProbesFollowPayload(t *testing.T) {
	k, _ := FindInvocable("fft")
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
		out[2*9] = int64(math.Float64bits(math.Float64frombits(uint64(out[2*9])) + 1)) // bin 9's real part
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

// TestStrassenVerifierRejectsFlips injects faults into strassen's outputs:
// under each of 200 payloads of side 64, one seeded entry of the kernel's
// correct output has one bit flipped, for bits 0, 31, 40, 62 and 63.
// Freivalds' check must reject every flip below bit 48, and the flips of
// bits 62 and 63 as often as its stated miss bound, 2^(freivaldsRounds·
// (t−64)) for bit t, allows: at most that share of the 200 plus six
// standard deviations of a Poisson count of that mean, plus one.  The
// clean outputs of both lowerings must pass, the sim lowering's at sides
// 16 and 32 and the real lowering's at 128, where it recurses.
func TestStrassenVerifierRejectsFlips(t *testing.T) {
	const trials, side = 200, 64
	k, _ := FindInvocable("strassen")
	pool := rt.NewPool(2, rt.Random)
	t.Cleanup(pool.Close)
	run := func(n int64, seed uint64) ([]int64, []int64) {
		in, err := k.Gen(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, k.OutLen(in))
		fj.RunReal(pool, func(c *fj.Ctx) { k.Run(c, in, out) })
		return in, out
	}
	if in, out := run(128, 1); !k.Verify(in, out) {
		t.Fatal("side 128: the real lowering's product fails verification")
	}
	var fk FJKernel
	for _, e := range fjCatalog {
		if e.fj.Name == "strassen" {
			fk = e.fj
		}
	}
	for _, n := range []int64{16, 32} {
		m := machine.New(machine.Default(4))
		w := fk.Setup(fj.NewSimEnv(m), n, 2)
		fj.RunSim(m, sched.NewPWS(), core.Options{}, fk.InputWords(n), "strassen", w.Root)
		if !w.Verify() {
			t.Fatalf("side %d: the sim lowering's product fails verification", n)
		}
	}
	bitsFlipped := []uint{0, 31, 40, 62, 63}
	misses := make([]int, len(bitsFlipped))
	g := LCG(99)
	for seed := range uint64(trials) {
		in, out := run(side, seed)
		if !k.Verify(in, out) {
			t.Fatalf("seed %d: correct output fails verification", seed)
		}
		pos := g.Next() % (side * side)
		for b, bit := range bitsFlipped {
			out[pos] ^= 1 << bit
			if k.Verify(in, out) {
				misses[b]++
			}
			out[pos] ^= 1 << bit
		}
	}
	for b, bit := range bitsFlipped {
		allowed := 0.0
		if bit >= 48 {
			mean := trials * math.Pow(2, float64(freivaldsRounds*(int(bit)-64)))
			allowed = mean + 6*math.Sqrt(mean) + 1
		}
		if float64(misses[b]) > allowed {
			t.Errorf("bit %d flipped: %d of %d corrupted products accepted, at most %.0f allowed", bit, misses[b], trials, allowed)
		}
	}
	t.Logf("corrupted products accepted per flipped bit %v: %v of %d", bitsFlipped, misses, trials)
}
