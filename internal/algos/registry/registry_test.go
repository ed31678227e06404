package registry

import (
	"testing"

	"repro/internal/fj"
	"repro/internal/rt"
)

func TestRegistryKeys(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range All() {
		key := k.Name + "/" + string(k.Backend)
		if k.Name == "" || seen[key] {
			t.Errorf("duplicate or empty kernel key %q", key)
		}
		seen[key] = true
		if k.Desc == "" {
			t.Errorf("%s: no description", key)
		}
		switch k.Backend {
		case Sim:
			if k.Sim == nil {
				t.Errorf("%s: sim entry malformed", key)
			}
		case Real:
			if k.FJ == nil || k.Sim != nil {
				t.Errorf("%s: real entry malformed", key)
			}
		default:
			t.Errorf("%s: unknown backend", key)
		}
	}
	if len(SimKernels()) != 13 {
		t.Errorf("sim catalog has %d kernels, want 13 (Table 1)", len(SimKernels()))
	}
	if len(FJKernels()) != 9 {
		t.Errorf("fj catalog has %d kernels, want 9", len(FJKernels()))
	}
}

// TestAllSortedAndFJPaired pins the listing contract: All is sorted by
// (name, backend), and every fj kernel appears on the sim backend, and on
// the real one exactly when RealKernels lists it, with the FJ marker set on
// each entry.
func TestAllSortedAndFJPaired(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Backend >= b.Backend) {
			t.Errorf("All() not sorted at %d: %s/%s before %s/%s", i, a.Name, a.Backend, b.Name, b.Backend)
		}
	}
	real := map[string]bool{}
	for _, f := range RealKernels() {
		real[f.Name] = true
	}
	for _, f := range FJKernels() {
		if k, ok := Find(f.Name, Sim); !ok || k.FJ == nil {
			t.Errorf("%s/sim: fj kernel missing or unmarked", f.Name)
		}
		k, ok := Find(f.Name, Real)
		if ok != real[f.Name] || ok && k.FJ == nil {
			t.Errorf("%s/real: found = %v, want %v, or unmarked", f.Name, ok, real[f.Name])
		}
	}
}

func TestFind(t *testing.T) {
	if k, ok := Find("FFT", Sim); !ok || k.Sim == nil {
		t.Error("FFT/sim not found")
	}
	if k, ok := Find("fft", Real); !ok || k.FJ == nil {
		t.Error("fft/real not found")
	}
	if _, ok := Find("FFT", Real); ok {
		t.Error("FFT/real should not exist (real kernels use lower-case names)")
	}
	if _, ok := Find("nope", Sim); ok {
		t.Error("bogus name found")
	}
}

func TestSimCatalogShape(t *testing.T) {
	for _, a := range SimKernels() {
		if len(a.Sizes) < 2 {
			t.Errorf("%s: need ≥2 sizes for growth ratios", a.Name)
		}
		for i := 1; i < len(a.Sizes); i++ {
			if a.Sizes[i] <= a.Sizes[i-1] {
				t.Errorf("%s: sizes not increasing", a.Name)
			}
		}
		if a.Build == nil || a.InputWords == nil {
			t.Errorf("%s: missing Build/InputWords", a.Name)
		}
	}
}

// TestRealKernelsVerify runs every real lowering once at quick size on a
// 2-worker pool and checks its own verifier passes.
func TestRealKernelsVerify(t *testing.T) {
	for _, k := range RealKernels() {
		t.Run(k.Name, func(t *testing.T) {
			n := k.Size(true)
			work := k.Setup(fj.NewRealEnv(), int64(n), 7)
			pool := rt.NewPool(2, rt.Random)
			t.Cleanup(pool.Close)
			fj.RunReal(pool, work.Root)
			if !work.Verify() {
				t.Errorf("%s: wrong result at n=%d", k.Name, n)
			}
		})
	}
}

// TestLookupsAllocateNothing pins that the catalog's derived views are built
// once: a lookup on the request path (FindInvocable, per /invoke) or in an
// experiment loop (Find, per modelled kernel) must not rebuild them.
func TestLookupsAllocateNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := FindInvocable("transpose"); !ok {
			t.Fatal("transpose not invocable")
		}
	}); n != 0 {
		t.Errorf("FindInvocable allocates %v objects per lookup, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := Find("transpose", Real); !ok {
			t.Fatal("transpose/real not found")
		}
	}); n != 0 {
		t.Errorf("Find allocates %v objects per lookup, want 0", n)
	}
}
