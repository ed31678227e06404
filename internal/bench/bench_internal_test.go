package bench

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

func TestCatalogIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Catalog() {
		if a.Name == "" || seen[a.Name] {
			t.Errorf("duplicate or empty algorithm name %q", a.Name)
		}
		seen[a.Name] = true
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
	if len(seen) != 13 {
		t.Errorf("catalog has %d algorithms, want 13 (Table 1)", len(seen))
	}
}

func TestFindAlgo(t *testing.T) {
	if _, ok := FindAlgo("FFT"); !ok {
		t.Error("FFT not found")
	}
	if _, ok := FindAlgo("nope"); ok {
		t.Error("bogus name found")
	}
}

func TestExperimentsRegistered(t *testing.T) {
	exps := Experiments()
	if len(exps) != 15 {
		t.Fatalf("%d experiments registered, want 15 (EXP01–EXP16, EXP12 retired)", len(exps))
	}
	for _, e := range exps {
		if e.Backend != "sim" && e.Backend != "real" {
			t.Errorf("%s: backend %q not in the registry vocabulary", e.ID, e.Backend)
		}
	}
	for i, e := range exps {
		if e.Cells == nil || e.Render == nil {
			t.Errorf("%s has no cell builder or renderer", e.ID)
		}
		if !strings.HasPrefix(e.ID, "EXP") {
			t.Errorf("bad id %q at %d", e.ID, i)
		}
	}
	if _, ok := FindExperiment("EXP06"); !ok {
		t.Error("EXP06 not found")
	}
	if _, ok := FindExperiment("EXP99"); ok {
		t.Error("bogus experiment found")
	}
}

func TestRepeatsProduceDistinctSeededRows(t *testing.T) {
	e, _ := FindExperiment("EXP05")
	rows := e.Rows(Params{Quick: true, Repeats: 2, Seed: 7}, 1)
	var r0, r1 int
	for _, r := range rows {
		switch r.Repeat {
		case 0:
			r0++
			if r.Seed != 7 {
				t.Errorf("repeat 0 row has seed %d, want 7", r.Seed)
			}
		case 1:
			r1++
			if r.Seed != 8 {
				t.Errorf("repeat 1 row has seed %d, want 8", r.Seed)
			}
		}
	}
	if r0 == 0 || r0 != r1 {
		t.Errorf("repeat row counts %d/%d, want equal and non-zero", r0, r1)
	}
}

func TestSeedChangesInputs(t *testing.T) {
	a, _ := FindAlgo("Sort (HBP-MS)")
	s1 := DefaultSpec(4)
	s2 := DefaultSpec(4)
	s2.Seed = 99
	r1, r2 := Run(a, 1024, s1), Run(a, 1024, s2)
	if r1.Makespan == r2.Makespan && r1.Total.ColdMisses == r2.Total.ColdMisses {
		t.Error("different seeds produced identical runs; seed is not threaded into inputs")
	}
}

func TestRunSmallestScan(t *testing.T) {
	// One end-to-end run through the harness path used by every driver.
	a, _ := FindAlgo("Scan(M-Sum)")
	res := Run(a, 4096, DefaultSpec(4))
	if res.Work == 0 || res.Total.ColdMisses == 0 {
		t.Error("empty result from harness run")
	}
	if res.Scheduler != "PWS" {
		t.Errorf("scheduler %q", res.Scheduler)
	}
	rws := DefaultSpec(4)
	rws.Sched = "rws"
	res2 := Run(a, 4096, rws)
	if res2.Scheduler != "RWS" {
		t.Errorf("scheduler %q", res2.Scheduler)
	}
}

// TestDefaultSpecIsMachineDefault pins the spec every sweep starts from:
// machine.Default's tall cache under PWS, at any p.
func TestDefaultSpecIsMachineDefault(t *testing.T) {
	for _, p := range []int{1, 8} {
		want := Spec{P: p, M: 1024, B: 16, MissLatency: 8, Sched: "pws"}
		if got := DefaultSpec(p); got != want {
			t.Errorf("DefaultSpec(%d) = %+v, want %+v", p, got, want)
		}
		c := machine.Default(p)
		if s := DefaultSpec(p); s.M != c.M || s.B != c.B || s.MissLatency != c.MissLatency {
			t.Errorf("DefaultSpec(%d) = %+v, machine.Default = %+v", p, s, c)
		}
	}
}

// TestSweepOrder pins the row order of the two drivers that sweep a
// machine parameter under repeats — the swept parameter outer, the repeat
// innermost, repeat r seeded Seed+r — so a -repeats run does not reorder.
func TestSweepOrder(t *testing.T) {
	type id struct {
		algo   string
		p      int
		padded bool
		rep    int
		seed   uint64
	}
	cases := []struct {
		exp  string
		want func(yield func(id))
	}{
		{"EXP02", func(yield func(id)) {
			for _, a := range []string{"Scan(M-Sum)", "Scan(PS)", "MT (BI)"} {
				for _, p := range []int{1, 2, 8} {
					for r := range 2 {
						yield(id{a, p, false, r, 100 + uint64(r)})
					}
				}
			}
		}},
		{"EXP08", func(yield func(id)) {
			for _, a := range []string{"Scan(M-Sum)", "Scan(PS)", "FFT"} {
				for _, padded := range []bool{false, true} {
					for r := range 2 {
						yield(id{a, 8, padded, r, 100 + uint64(r)})
					}
				}
			}
		}},
	}
	for _, c := range cases {
		e, _ := FindExperiment(c.exp)
		rows := e.Rows(Params{Quick: true, Repeats: 2, Seed: 100}, 1)
		var want []id
		c.want(func(x id) { want = append(want, x) })
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", c.exp, len(rows), len(want))
		}
		for i, r := range rows {
			if got := (id{r.Algo, r.P, r.Padded, r.Repeat, r.Seed}); got != want[i] {
				t.Errorf("%s row %d is %+v, want %+v", c.exp, i, got, want[i])
			}
		}
	}
}

func TestDeterministicInputs(t *testing.T) {
	// Same seed → same generated inputs → identical results.
	a, _ := FindAlgo("Sort (HBP-MS)")
	r1 := Run(a, 1024, DefaultSpec(4))
	r2 := Run(a, 1024, DefaultSpec(4))
	if r1.Makespan != r2.Makespan || r1.Work != r2.Work {
		t.Error("harness runs are not reproducible")
	}
}
