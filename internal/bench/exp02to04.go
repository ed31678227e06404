package bench

import (
	"io"

	"repro/internal/harness"
	"repro/internal/model"
)

// measureCell is the cell of one (algo, n, spec) run: measure's row.
func measureCell(exp string, a Algo, n int64, spec Spec) harness.Cell {
	return harness.Cell{
		Exp: exp, Label: a.Name,
		Run: func() []harness.Row { return []harness.Row{measure(exp, a, n, spec)} },
	}
}

// modelOf returns the analytical model of row r's algorithm and the point
// r's machine evaluates it at.  Every bound a driver checks comes from it.
func modelOf(r harness.Row) (model.Model, model.Params) {
	m, _ := model.For(r.Algo)
	return m, model.Params{N: r.N, P: r.P, M: r.M, B: r.B}
}

// excessFinish is the finish pass of the steal-excess lemmas: every p > 1
// row gets Bound = the model's StealExcess and Ratio = the cache-miss
// excess over its serial base per Bound, and aux picks Aux1 from the base's
// misses and the excess.
func excessFinish(aux func(base, excess float64) float64) func([]harness.Row) []harness.Row {
	return func(rows []harness.Row) []harness.Row {
		for i, r := range rows {
			base, ok := baseFor(rows, r)
			if !ok || r.P == 1 {
				continue
			}
			excess := float64(r.CacheMisses - base.CacheMisses)
			m, at := modelOf(r)
			rows[i].Aux1 = aux(float64(base.CacheMisses), excess)
			rows[i].Bound = m.Predict(model.StealExcess, at)
			rows[i].Ratio = excess / rows[i].Bound
		}
		return rows
	}
}

// EXP02 checks Lemma 4.4: for BP computations with f(r)=O(√r) and a tall
// cache, the PWS cache-miss excess over the serial execution is O(p·M/B).
// We sweep p at fixed n ≥ Mp; the finish pass sets Aux1 = serial Q,
// Bound = p·M/B (the model's steal excess) and Ratio = excess/bound, which
// the lemma predicts stays bounded by a constant.
func exp02Cells(p Params) []harness.Cell {
	procs := []int{1, 2, 4, 8, 16}
	if p.Quick {
		procs = []int{1, 2, 8}
	}
	var cells []harness.Cell
	for _, name := range []string{"Scan(M-Sum)", "Scan(PS)", "MT (BI)"} {
		a, _ := FindAlgo(name)
		n := a.Sizes[len(a.Sizes)-1]
		for _, pr := range procs {
			p.eachRepeat(func(rep int, seed uint64) {
				cells = append(cells, measureCell("EXP02", a, n, stamp(DefaultSpec(pr), rep, seed)))
			})
		}
	}
	return cells
}

var exp02Finish = excessFinish(func(base, _ float64) float64 { return base })

func exp02Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP02 — Lemma 4.4: BP cache-miss excess ≤ c·p·M/B")
	t := harness.NewTable(w, "Algorithm", "n", "p", "Q(serial)", "Q(PWS)", "excess", "excess/(pM/B)")
	for _, r := range rows {
		if r.P == 1 {
			continue
		}
		t.Line(r.Algo, harness.F(r.N), harness.F(r.P), harness.F(int64(r.Aux1)),
			harness.F(r.CacheMisses), harness.F(r.CacheMisses-int64(r.Aux1)), harness.F(r.Ratio))
	}
	t.Flush()
}

// EXP03 checks Lemma 4.1 for the Type-2 HBP computations:
// (i) Strassen (c=1, s(m)=m/4): excess O(p·(M/B)·s*(n²,M));
// (ii) FFT (c=2, s(n)=√n): excess O(p·(M/B)·log n/log M);
// (iii) Depth-n-MM (c=2, s(m)=m/4): excess O(p·√n²·M/B · shape).
// Finish sets Aux1 = excess, Bound = the model's steal excess (the lemma
// formula), Ratio = Aux1/Bound.
func exp03Cells(p Params) []harness.Cell {
	procs := []int{1, 2, 4, 8}
	if p.Quick {
		procs = []int{1, 2, 8}
	}
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, name := range []string{"Strassen (BI)", "FFT", "Depth-n-MM"} {
			a, _ := FindAlgo(name)
			n := a.Sizes[len(a.Sizes)-1]
			if p.Quick {
				n = a.Sizes[1]
			}
			for _, pr := range procs {
				cells = append(cells, measureCell("EXP03", a, n, stamp(DefaultSpec(pr), rep, seed)))
			}
		}
	})
	return cells
}

var exp03Finish = excessFinish(func(_, excess float64) float64 { return excess })

func exp03Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP03 — Lemma 4.1: Type-2 HBP cache-miss excess")
	t := harness.NewTable(w, "Algorithm", "n", "p", "excess", "formula", "excess/formula")
	for _, r := range rows {
		if r.P == 1 {
			continue
		}
		t.Line(r.Algo, harness.F(r.N), harness.F(r.P),
			harness.F(int64(r.Aux1)), harness.F(int64(r.Bound)), harness.F(r.Ratio))
	}
	t.Flush()
}

// EXP04 checks the block-miss (false-sharing) bounds: Lemma 4.8 gives
// O(p·B·log B) for a BP down-pass with L(r)=O(1); Lemma 4.2 gives
// O(pB·log n·lglg B) for FFT and O(pB√n) for Depth-n-MM.  We sweep p and B;
// each row carries Bound = the model's false-sharing term and Ratio =
// blockMisses/Bound.
func exp04Cells(p Params) []harness.Cell {
	procs := []int{2, 4, 8, 16}
	blocks := []int{8, 16, 32}
	if p.Quick {
		procs = []int{2, 8}
		blocks = []int{16}
	}
	var cells []harness.Cell
	// note distinguishes the two sweep sections; without it the p-sweep's
	// (p=8, B=16) cell and the B-sweep's B=16 cell would share a row key.
	add := func(a Algo, n int64, spec Spec, note string) {
		cells = append(cells, harness.Cell{
			Exp: "EXP04", Label: a.Name,
			Run: func() []harness.Row {
				r := measure("EXP04", a, n, spec)
				r.Note = note
				m, at := modelOf(r)
				r.Bound = m.FalseSharing(at)
				r.Ratio = float64(r.BlockMisses+r.UpgradeMisses) / r.Bound
				return []harness.Row{r}
			},
		})
	}
	p.eachRepeat(func(rep int, seed uint64) {
		for _, name := range []string{"Scan(M-Sum)", "MT (BI)", "FFT", "Depth-n-MM"} {
			a, _ := FindAlgo(name)
			n := a.Sizes[1]
			for _, pr := range procs {
				add(a, n, stamp(DefaultSpec(pr), rep, seed), "psweep")
			}
			for _, B := range blocks {
				spec := stamp(DefaultSpec(8), rep, seed)
				spec.B = B
				spec.M = 64 * B // keep M/B fixed while B sweeps
				add(a, n, spec, "bsweep")
			}
		}
	})
	return cells
}

func exp04Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP04 — Lemmas 4.8/4.9/4.2: block-miss (false-sharing) excess")
	t := harness.NewTable(w, "Algorithm", "n", "p", "B", "blockMisses", "formula", "meas/formula")
	for _, r := range rows {
		t.Line(r.Algo, harness.F(r.N), harness.F(r.P), harness.F(r.B),
			harness.F(r.BlockMisses+r.UpgradeMisses), harness.F(int64(r.Bound)), harness.F(r.Ratio))
	}
	t.Flush()
}
