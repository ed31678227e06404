package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/harness"
	"repro/internal/trace"
)

// EXP01 regenerates Table 1: for every algorithm it measures W(n), T∞(n)
// and Q(n,M,B) across an n-sweep in a serial run (growth ratios are
// compared against the stated formulas, note "measured"), and measures the
// per-task parameters f(r) and L(r) in a pass over the recording of a run
// on p=4 (note "traced": Aux1 = max f-excess, Aux2 = max L-shared, Aux3 =
// balance).
func exp01Cells(p Params) []harness.Cell {
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, a := range Catalog() {
			sizes := a.Sizes
			if p.Quick {
				sizes = sizes[:2]
			}
			for _, n := range sizes {
				spec := stamp(DefaultSpec(1), rep, seed)
				cells = append(cells, harness.Cell{
					Exp: "EXP01", Label: a.Name,
					Run: func() []harness.Row {
						r := measure("EXP01", a, n, spec)
						r.Note = "measured"
						return []harness.Row{r}
					},
				})
			}
		}
		for _, a := range Catalog() {
			n := a.Sizes[0]
			if a.Name == "CC" || a.Name == "LR" {
				n = 64
			}
			spec := stamp(DefaultSpec(4), rep, seed)
			cells = append(cells, harness.Cell{
				Exp: "EXP01", Label: a.Name + "/traced",
				Run: func() []harness.Row {
					return []harness.Row{tracedRow(a, n, spec)}
				},
			})
		}
	})
	return cells
}

// tracedRow runs one algorithm, recording it, and measures f(r), L(r) and
// the balance ratio in a pass over the tape.
func tracedRow(a Algo, n int64, spec Spec) harness.Row {
	start := time.Now() //lint:allow determinism wall-clock feeds only WallNS, which Normalize zeroes for -canon
	res, tape, err := Record(a, n, spec)
	if err != nil {
		panic(fmt.Sprintf("EXP01: %s n=%d: %v", a.Name, n, err))
	}
	pm := trace.Measure(tape)
	row := rowFrom("EXP01", a.Name, n, spec, res, time.Since(start))
	row.Note = "traced"
	row.Aux1, row.Aux2, row.Aux3 = float64(pm.MaxF), float64(pm.MaxL), pm.Balance
	return row
}

func exp01Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP01 — Table 1: structural parameters")
	t := harness.NewTable(w, "Algorithm", "Type", "f(r)", "L(r)", "W(n)", "T∞(n)", "Q(n,M,B)")
	for _, a := range Catalog() {
		t.Line(a.Name, a.Typ, a.F, a.L, a.W, a.TInf, a.Q)
	}
	t.Flush()

	fmt.Fprintln(w, "\nmeasured (serial, M=1024 B=16):")
	t = harness.NewTable(w, "Algorithm", "n", "W", "T∞", "Q", "growth W/T∞/Q per step")
	var prev harness.Row
	for _, r := range rows {
		if r.Note != "measured" {
			continue
		}
		growth := ""
		if prev.Algo == r.Algo && prev.Repeat == r.Repeat {
			growth = fmt.Sprintf("×%.2f / ×%.2f / ×%.2f",
				ratio(r.Work, prev.Work),
				ratio(r.CritPath, prev.CritPath),
				ratio(r.CacheMisses, prev.CacheMisses))
		}
		t.Line(r.Algo, harness.F(r.N), harness.F(r.Work), harness.F(r.CritPath),
			harness.F(r.CacheMisses), growth)
		prev = r
	}
	t.Flush()

	fmt.Fprintln(w, "\nper-task f(r) excess and L(r) sharing (traced, p=4, smallest n):")
	t = harness.NewTable(w, "Algorithm", "n", "max f-exc", "max L-shared", "balance")
	for _, r := range rows {
		if r.Note != "traced" {
			continue
		}
		t.Line(r.Algo, harness.F(r.N), harness.F(int64(r.Aux1)), harness.F(int64(r.Aux2)), harness.F(r.Aux3))
	}
	t.Flush()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}
