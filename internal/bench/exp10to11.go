package bench

import (
	"io"
	"math"

	"repro/internal/algos/listrank"
	"repro/internal/algos/registry"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/model"
)

// EXP10 checks Theorem 4.1 / Lemmas 4.13–4.15: LR's serial cache complexity
// should track the sort bound (n/B)·(log n/log M); its block misses should
// be tamed by gapping (no list-state block misses once the contracted list
// is smaller than n/B²).  Serial rows carry Bound/Ratio (note "serial");
// the p=8 ablation rows are tagged "gapped"/"nogap".
func exp10Cells(p Params) []harness.Cell {
	sizes := []int64{256, 512, 1024}
	if p.Quick {
		sizes = []int64{256, 512}
	}
	lr, _ := FindAlgo("LR")
	// LR's serial cache complexity is the sort bound, spms's SeqQ.
	sortQ, _ := model.For("spms")
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, n := range sizes {
			spec := stamp(DefaultSpec(1), rep, seed)
			cells = append(cells, harness.Cell{
				Exp: "EXP10", Label: "LR/serial",
				Run: func() []harness.Row {
					r := measure("EXP10", lr, n, spec)
					r.Note = "serial"
					r.Bound = sortQ.Predict(model.SeqQ, model.Params{N: n, P: 1, M: spec.M, B: spec.B})
					r.Ratio = float64(r.CacheMisses) / r.Bound
					return []harness.Row{r}
				},
			})
		}
		for _, n := range sizes {
			for _, arm := range []struct {
				note string
				a    Algo
			}{{"gapped", lr}, {"nogap", lrNoGap}} {
				spec := stamp(DefaultSpec(8), rep, seed)
				cells = append(cells, harness.Cell{
					Exp: "EXP10", Label: "LR/ablation",
					Run: func() []harness.Row {
						r := measure("EXP10", arm.a, n, spec)
						r.Note = arm.note
						return []harness.Row{r}
					},
				})
			}
		}
	})
	return cells
}

// lrNoGap is the catalog's LR with the gapping cutoff off, EXP10's ablation
// arm.
var lrNoGap = Algo{Name: "LR", Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
	succ := registry.RandPermList(m.Space, n, seed+14)
	return listrank.Rank(succ, mem.NewArray(m.Space, n), listrank.Options{NoGap: true})
}}

func exp10Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP10 — Theorem 4.1: list ranking")
	t := harness.NewTable(w, "n", "Q", "(n/B)(lg n/lg M)", "ratio  (serial)")
	for _, r := range rows {
		if r.Note != "serial" {
			continue
		}
		t.Line(harness.F(r.N), harness.F(r.CacheMisses), harness.F(int64(r.Bound)), harness.F(r.Ratio))
	}
	t.Flush()
	io.WriteString(w, "\ngapping ablation (p=8):\n")
	t = harness.NewTable(w, "n", "gapped", "blockMisses", "makespan")
	for _, r := range rows {
		if r.Note != "gapped" && r.Note != "nogap" {
			continue
		}
		t.Line(harness.F(r.N), harness.F(r.Note == "gapped"),
			harness.F(r.BlockMisses+r.UpgradeMisses), harness.F(r.Makespan))
	}
	t.Flush()
}

// EXP11 checks that CC costs ≈ log n times LR at the same size, the shape
// the paper derives (Section 4.6): work, cache misses and critical path all
// pick up a log n factor.  The CC row of each pair carries Aux1 = W-ratio,
// Aux2 = W-ratio/lg n, Aux3 = Q-ratio/lg n.
func exp11Cells(p Params) []harness.Cell {
	sizes := []int64{64, 128, 256}
	if p.Quick {
		sizes = []int64{64, 128}
	}
	var cells []harness.Cell
	cc, _ := FindAlgo("CC")
	lr, _ := FindAlgo("LR")
	p.eachRepeat(func(rep int, seed uint64) {
		for _, n := range sizes {
			spec := stamp(DefaultSpec(1), rep, seed)
			cells = append(cells, harness.Cell{
				Exp: "EXP11", Label: "CC-vs-LR",
				Run: func() []harness.Row {
					rcc := measure("EXP11", cc, n, spec)
					rlr := measure("EXP11", lr, n, spec)
					lg := math.Log2(float64(n))
					wr := float64(rcc.Work) / float64(rlr.Work)
					qr := float64(rcc.CacheMisses) / float64(rlr.CacheMisses)
					rcc.Aux1, rcc.Aux2, rcc.Aux3 = wr, wr/lg, qr/lg
					return []harness.Row{rcc, rlr}
				},
			})
		}
	})
	return cells
}

func exp11Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP11 — CC = log n × LR cost shape")
	t := harness.NewTable(w, "n", "W(CC)", "W(LR)", "W-ratio", "ratio/lg n", "Q-ratio/lg n")
	for _, r := range rows {
		if r.Algo != "CC" {
			continue
		}
		lr, ok := findRow(rows, func(b harness.Row) bool {
			return b.Algo == "LR" && b.N == r.N && b.Repeat == r.Repeat
		})
		if !ok {
			continue
		}
		t.Line(harness.F(r.N), harness.F(r.Work), harness.F(lr.Work),
			harness.F(r.Aux1), harness.F(r.Aux2), harness.F(r.Aux3))
	}
	t.Flush()
}
