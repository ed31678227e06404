package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/harness"
)

// EXP01 regenerates Table 1: for every algorithm it measures W(n), T∞(n)
// and Q(n,M,B) across an n-sweep in a serial run (growth ratios are
// compared against the stated formulas, note "measured"), and measures the
// per-task parameters f(r) and L(r) with a traced run on p=4 (note
// "traced": Aux1 = max f-excess, Aux2 = max L-shared, Aux3 = balance).
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
				if p.Quick {
					// Tracing walks the ancestor chain on every access; the
					// deep DAGs of LR/CC make that minutes of work.  The
					// full run (hbpbench, no -quick) includes them.
					continue
				}
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

// tracedRow runs one algorithm with the f(r)/L(r) tracer attached.
func tracedRow(a Algo, n int64, spec Spec) harness.Row {
	start := time.Now() //lint:allow determinism wall-clock feeds only WallNS, which Normalize zeroes for -canon
	res, tr := Traced(a, n, spec)
	row := rowFrom("EXP01", a.Name, n, spec, res, time.Since(start))
	row.Note = "traced"
	maxL := int64(0)
	for _, pt := range tr.LMeasure() {
		if pt.Shared > maxL {
			maxL = pt.Shared
		}
	}
	row.Aux1 = float64(tr.MaxFExcess(int64(spec.B)))
	row.Aux2 = float64(maxL)
	row.Aux3 = tr.BalanceRatio(4)
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
