package bench_test

// EXP14 acceptance: for every kernel × scheduler × grid point in the quick
// grid, the measured quantity must stay within the model's declared
// envelope of the fitted prediction.  This is the executable form of the
// paper's bound lemmas — if an algorithm or the simulator regresses in a
// way that changes miss/transfer *growth*, the ratio drifts out of the
// envelope and this test fails.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/model"
)

// TestModelledKernelsResolve couples the model's name list to the sim
// catalog: a rename on either side must fail here, not silently drop the
// kernel's bound check from EXP14.
func TestModelledKernelsResolve(t *testing.T) {
	for _, name := range model.Names() {
		if _, ok := bench.FindAlgo(name); !ok {
			t.Errorf("modelled kernel %q has no sim catalog entry", name)
		}
	}
}

// TestLemma41FormulaPositive checks that EXP03's Bound column is the
// model's steal-excess prediction, positive, at every p > 1 row.
func TestLemma41FormulaPositive(t *testing.T) {
	checked := 0
	for _, r := range serialRows(t, "EXP03", true) {
		if r.P == 1 {
			continue
		}
		m, ok := model.For(r.Algo)
		if !ok {
			t.Fatalf("%s has no model", r.Algo)
		}
		want := m.Predict(model.StealExcess, model.Params{N: r.N, P: r.P, M: r.M, B: r.B})
		if r.Bound != want || !(want > 0) {
			t.Errorf("%s n=%d p=%d: Bound = %v, the model predicts %v", r.Algo, r.N, r.P, r.Bound, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("EXP03 has no p > 1 rows")
	}
}

func TestEXP14WithinEnvelope(t *testing.T) {
	rows := serialRows(t, "EXP14", true)
	if len(rows) == 0 {
		t.Fatal("EXP14 produced no rows")
	}
	quantities := map[string]int{}
	for _, r := range rows {
		quantities[r.Note]++
		if r.Aux2 <= 1 {
			t.Errorf("%s %s n=%d p=%d B=%d: no envelope declared", r.Algo, r.Note, r.N, r.P, r.B)
			continue
		}
		if !model.CheckRatio(model.Quantity(r.Note), r.Ratio, r.Aux2) {
			t.Errorf("%s %s sched=%s n=%d p=%d B=%d: ratio %.3f outside envelope %.1f (measured %.0f vs fitted bound %.0f)",
				r.Algo, r.Note, r.Sched, r.N, r.P, r.B, r.Ratio, r.Aux2, r.Aux3, r.Bound)
		}
	}
	for _, q := range model.Quantities() {
		if quantities[string(q)] == 0 {
			t.Errorf("no rows check quantity %q", q)
		}
	}
}
