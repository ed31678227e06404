package bench

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
)

// EXP14 closes the loop between the simulator and the analytical cost model
// (internal/model): for every modelled kernel × scheduler {pws, rws} ×
// (n, p, B) grid point it runs the simulator and checks the measured
// quantities against the paper's closed-form predictions using the
// constant-fitting protocol — the constant of each (kernel, quantity,
// scheduler, p, B) group is fit on the smallest size, and every larger size
// must keep measured/(c·predicted) inside the model's declared envelope.
//
// Three quantities are checked, tagged in Note:
//
//	seqQ       serial (p=1) cold/capacity misses vs Q(n; M, B)
//	excess     extra cold/capacity misses at p>1 vs the steal-excess lemma
//	transfers  extra directory block transfers (Definition 2.2) at p>1 vs
//	           steal excess + the false-sharing block-delay term
//
// Row columns: Bound = c·predicted, Ratio = measured/Bound, Aux1 = the
// fitted constant c, Aux2 = the declared envelope, Aux3 = the raw measured
// value.  Rows are deterministic (no wall-clock measurement), so `-canon`
// output is byte-identical across -parallel levels; the envelope assertion
// itself lives in exp14_test.go.
//
// A kernel's access stream is a function of (kernel, n, seed, B, M) alone,
// so of the cells that share those — the serial one and every scheduler ×
// p — only the first runs the kernel: it records the run, and the others
// replay the recording (see tapes).

// exp14Grid returns the sweep dimensions.
func exp14Grid(quick bool) (procs, blocks []int, scheds []string) {
	if quick {
		return []int{4}, []int{16}, []string{"pws", "rws"}
	}
	return []int{2, 8}, []int{16, 32}, []string{"pws", "rws"}
}

// exp14Sizes picks the n-sweep: at least two sizes (fit + check).
func exp14Sizes(a Algo, quick bool) []int64 {
	if quick {
		return a.Sizes[:2]
	}
	return a.Sizes
}

// exp14Spec builds the machine spec for one grid point (M fixed at the
// tall-cache default so the B-sweep varies the block count M/B).
func exp14Spec(p, B int, sched string, rep int, seed uint64) Spec {
	spec := stamp(DefaultSpec(p), rep, seed)
	spec.B = B
	spec.Sched = sched
	return spec
}

func exp14Cells(p Params) []harness.Cell {
	procs, blocks, scheds := exp14Grid(p.Quick)
	tapes := &tapes{m: map[tapeKey]*core.Tape{}}
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, name := range model.Names() {
			a, ok := FindAlgo(name)
			if !ok {
				// A model without a catalog kernel is a wiring bug, not a
				// configuration: dropping it here would silently delete the
				// paper-bound check for that algorithm.
				panic(fmt.Sprintf("exp14: modelled kernel %q not in the sim catalog", name))
			}
			for _, B := range blocks {
				for _, n := range exp14Sizes(a, p.Quick) {
					// Serial baseline: one run per (kernel, n, B), the seqQ
					// check and the base the parallel excesses subtract.
					a, n, spec := a, n, exp14Spec(1, B, "pws", rep, seed)
					cells = append(cells, harness.Cell{
						Exp: "EXP14", Label: a.Name + "/serial",
						Run: func() []harness.Row {
							r := timed("EXP14", a, n, spec, tapes.run)
							r.Note = string(model.SeqQ)
							return []harness.Row{r}
						},
					})
					for _, sched := range scheds {
						for _, pr := range procs {
							sched, pr := sched, pr
							spec := exp14Spec(pr, B, sched, rep, seed)
							cells = append(cells, harness.Cell{
								Exp: "EXP14", Label: a.Name + "/" + sched,
								Run: func() []harness.Row {
									r := timed("EXP14", a, n, spec, tapes.run)
									excess, transfers := r, r
									excess.Note = string(model.StealExcess)
									transfers.Note = string(model.BlockDelay)
									return []harness.Row{excess, transfers}
								},
							})
						}
					}
				}
			}
		}
	})
	return cells
}

// tapes holds the recordings of one EXP14 expansion, one per key: the
// first cell of a key runs what the kernel builds and records it, every
// later one replays the recording.  An fj kernel builds a replay (of the
// tape its sim lowering writes running the source serially), which records
// like a live run.  Cells may run concurrently (harness.Execute): a cell
// that finds its key still being recorded runs what the kernel builds
// without recording it, as does every cell of a key whose recording was
// refused.  Outputs are never read, so a replay, which moves no values,
// serves any cell.
type tapes struct {
	mu sync.Mutex
	m  map[tapeKey]*core.Tape // nil: being recorded, or refused
}

// tapeKey is what a kernel's run depends on besides the schedule.
type tapeKey struct {
	algo string
	n    int64
	seed uint64
	b, m int
}

// run is Run, recording the key's first run and replaying it after.
func (ts *tapes) run(a Algo, n int64, spec Spec) core.Result {
	k := tapeKey{a.Name, n, spec.Seed, spec.B, spec.M}
	ts.mu.Lock()
	t, seen := ts.m[k]
	if !seen {
		ts.m[k] = nil
	}
	ts.mu.Unlock()
	switch {
	case t != nil:
		m := newMachine(spec)
		m.Space.Alloc(t.Inputs())
		return newEngine(m, spec).Replay(t)
	case seen:
		return Run(a, n, spec)
	}
	m := newMachine(spec)
	root := a.Build(m, n, spec.Seed)
	res, t, err := newEngine(m, spec).Record(root)
	if err == nil {
		ts.mu.Lock()
		ts.m[k] = t
		ts.mu.Unlock()
	}
	return res
}

// exp14SerialKey identifies the serial baseline a parallel row subtracts.
type exp14SerialKey struct {
	algo string
	n    int64
	b    int
	rep  int
}

// exp14Measured extracts the quantity a row checks, floored at 1 (so a
// zero excess cannot blow up the fit): serial cold misses for seqQ, the
// delta over the serial baseline for the parallel quantities.
func exp14Measured(r harness.Row, serial map[exp14SerialKey]harness.Row) float64 {
	base := serial[exp14SerialKey{r.Algo, r.N, r.B, r.Repeat}]
	switch model.Quantity(r.Note) {
	case model.SeqQ:
		return model.Floor1(float64(r.CacheMisses))
	case model.StealExcess:
		return model.Floor1(float64(r.CacheMisses - base.CacheMisses))
	case model.BlockDelay:
		return model.Floor1(float64(r.Transfers - base.Transfers))
	}
	return 1
}

// exp14Finish runs the constant-fitting protocol: group rows by (kernel,
// quantity, scheduler, p, B, repeat), fit c on the smallest n, and fill
// Bound = c·predicted, Ratio = measured/Bound, Aux1 = c, Aux2 = envelope,
// Aux3 = measured.
func exp14Finish(rows []harness.Row) []harness.Row {
	serial := map[exp14SerialKey]harness.Row{}
	for _, r := range rows {
		if model.Quantity(r.Note) == model.SeqQ {
			serial[exp14SerialKey{r.Algo, r.N, r.B, r.Repeat}] = r
		}
	}
	type groupKey struct {
		algo, note, sched string
		p, b, rep         int
	}
	groups := map[groupKey][]int{}
	for i, r := range rows {
		k := groupKey{r.Algo, r.Note, r.Sched, r.P, r.B, r.Repeat}
		groups[k] = append(groups[k], i)
	}
	//lint:allow determinism groups partition the row indices, so each row is written by exactly one iteration and order cannot matter
	for _, idx := range groups {
		sort.Slice(idx, func(a, b int) bool { return rows[idx[a]].N < rows[idx[b]].N })
		m, ok := model.For(rows[idx[0]].Algo)
		if !ok {
			continue
		}
		q := model.Quantity(rows[idx[0]].Note)
		fitRow := rows[idx[0]]
		c := model.Fit(
			exp14Measured(fitRow, serial),
			m.Predict(q, model.Params{N: fitRow.N, P: fitRow.P, M: fitRow.M, B: fitRow.B}))
		for _, i := range idx {
			r := &rows[i]
			predicted := m.Predict(q, model.Params{N: r.N, P: r.P, M: r.M, B: r.B})
			measured := exp14Measured(*r, serial)
			r.Bound = c * predicted
			r.Ratio, _ = model.Check(q, measured, predicted, c, m.EnvelopeFor(q))
			r.Aux1 = c
			r.Aux2 = m.EnvelopeFor(q)
			r.Aux3 = measured
		}
	}
	return rows
}

func exp14Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP14 — analytical model check: measured vs fitted prediction per quantity")
	t := harness.NewTable(w, "Algorithm", "n", "p", "B", "sched", "quantity",
		"measured", "c·predicted", "ratio", "envelope", "status")
	for _, r := range rows {
		status := "ok"
		if !model.CheckRatio(model.Quantity(r.Note), r.Ratio, r.Aux2) {
			status = "OUT OF ENVELOPE"
		}
		t.Line(r.Algo, harness.F(r.N), harness.F(r.P), harness.F(r.B), r.Sched,
			r.Note, harness.F(int64(r.Aux3)), harness.F(int64(r.Bound)),
			harness.F(r.Ratio), harness.F(r.Aux2), status)
	}
	t.Flush()
}
