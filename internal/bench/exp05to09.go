package bench

import (
	"io"
	"math/bits"

	"repro/internal/harness"
)

// EXP05 verifies Observation 4.3 (at most p−1 steals of any one priority)
// and Corollary 4.1 (at most 2·p·D′ steal attempts) exactly, for every
// algorithm in the catalog.  Bound = 2pD′; Note records "ok" or "violation".
func exp05Cells(p Params) []harness.Cell {
	procs := []int{2, 4, 8}
	if p.Quick {
		procs = []int{4}
	}
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, a := range Catalog() {
			n := a.Sizes[0]
			for _, pr := range procs {
				spec := stamp(DefaultSpec(pr), rep, seed)
				cells = append(cells, harness.Cell{
					Exp: "EXP05", Label: a.Name,
					Run: func() []harness.Row {
						r := measure("EXP05", a, n, spec)
						r.Bound = float64(2 * int64(pr) * r.DistinctPrios)
						if r.MaxStealsPerPrio <= int64(pr-1) && r.StealAttempts <= int64(r.Bound) {
							r.Note = "ok"
						} else {
							r.Note = "violation"
						}
						return []harness.Row{r}
					},
				})
			}
		}
	})
	return cells
}

func exp05Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP05 — Obs 4.3 (≤p−1 steals/priority) and Cor 4.1 (≤2pD′ attempts)")
	t := harness.NewTable(w, "Algorithm", "p", "steals/prio", "p-1", "attempts", "2pD'", "ok")
	for _, r := range rows {
		t.Line(r.Algo, harness.F(r.P), harness.F(r.MaxStealsPerPrio), harness.F(r.P-1),
			harness.F(r.StealAttempts), harness.F(int64(r.Bound)), harness.F(r.Note == "ok"))
	}
	t.Flush()
}

// EXP06 is the headline comparison: identical computations under the
// deterministic PWS scheduler versus classic randomized work stealing.  The
// paper proves PWS achieves lower caching overhead from steals; RWS steals
// deeper (smaller) tasks, incurring more excess misses and more block
// misses.  Finish sets Aux1 = cache-miss excess over the serial PWS base.
func exp06Cells(p Params) []harness.Cell {
	procs := []int{1, 4, 8}
	if p.Quick {
		procs = []int{1, 8}
	}
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, name := range []string{"Scan(M-Sum)", "MT (BI)", "FFT", "Strassen (BI)"} {
			a, _ := FindAlgo(name)
			n := a.Sizes[1]
			for _, pr := range procs {
				scheds := []string{"pws", "rws"}
				if pr == 1 {
					scheds = []string{"pws"} // the serial baseline
				}
				for _, s := range scheds {
					spec := stamp(DefaultSpec(pr), rep, seed)
					spec.Sched = s
					cells = append(cells, harness.Cell{
						Exp: "EXP06", Label: a.Name + "/" + s,
						Run: func() []harness.Row {
							return []harness.Row{measure("EXP06", a, n, spec)}
						},
					})
				}
			}
		}
	})
	return cells
}

func exp06Finish(rows []harness.Row) []harness.Row {
	for i, r := range rows {
		base, ok := findRow(rows, func(b harness.Row) bool {
			return b.P == 1 && b.Sched == "pws" && b.Algo == r.Algo && b.N == r.N && b.Repeat == r.Repeat
		})
		if !ok || r.P == 1 {
			continue
		}
		rows[i].Aux1 = float64(r.CacheMisses - base.CacheMisses)
	}
	return rows
}

func exp06Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP06 — PWS vs RWS")
	t := harness.NewTable(w, "Algorithm", "p", "sched", "cacheExc", "blockMiss", "steals", "makespan", "idle")
	for _, r := range rows {
		if r.P == 1 {
			continue
		}
		t.Line(r.Algo, harness.F(r.P), r.Sched, harness.F(int64(r.Aux1)),
			harness.F(r.BlockMisses+r.UpgradeMisses), harness.F(r.Steals),
			harness.F(r.Makespan), harness.F(r.IdleTime))
	}
	t.Flush()
}

// EXP07 is the gapping ablation of Section 3.2: converting BI to RM
// directly has L(r)=√r (parallel tasks ping-pong row blocks), while the
// gapped destination gives tasks of size ≥ (B log²B)² zero write sharing at
// a constant-factor space cost, plus a compress scan.  Both variants run in
// one cell; Ratio = (direct block misses + 1)/(gapped block misses + 1).
func exp07Cells(p Params) []harness.Cell {
	sizes := []int64{64, 128, 256}
	if p.Quick {
		sizes = []int64{64, 128}
	}
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, n := range sizes {
			spec := stamp(DefaultSpec(8), rep, seed)
			cells = append(cells, harness.Cell{
				Exp: "EXP07", Label: "BI-RM",
				Run: func() []harness.Row {
					direct, _ := FindAlgo("Direct BI-RM")
					gapped, _ := FindAlgo("BI-RM (gap RM)")
					d := measure("EXP07", direct, n, spec)
					g := measure("EXP07", gapped, n, spec)
					ratio := float64(d.BlockMisses+d.UpgradeMisses+1) /
						float64(g.BlockMisses+g.UpgradeMisses+1)
					d.Ratio, g.Ratio = ratio, ratio
					return []harness.Row{d, g}
				},
			})
		}
	})
	return cells
}

func exp07Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP07 — gapping ablation: Direct BI-RM vs BI-RM (gap RM)")
	t := harness.NewTable(w, "n", "p", "variant", "blockMiss", "upgrades", "ratio")
	for _, r := range rows {
		t.Line(harness.F(r.N), harness.F(r.P), r.Algo,
			harness.F(r.BlockMisses), harness.F(r.UpgradeMisses), harness.F(r.Ratio))
	}
	t.Flush()
}

// EXP08 is the §4.7 ablation: padded BP computations allocate √|τ| pads
// between stack frames so frames of different tasks rarely share a block,
// cutting the block-wait component of steals to O(b log p).
func exp08Cells(p Params) []harness.Cell {
	var cells []harness.Cell
	for _, name := range []string{"Scan(M-Sum)", "Scan(PS)", "FFT"} {
		a, _ := FindAlgo(name)
		n := a.Sizes[1]
		if p.Quick {
			n = a.Sizes[0]
		}
		for _, padded := range []bool{false, true} {
			p.eachRepeat(func(rep int, seed uint64) {
				spec := stamp(DefaultSpec(8), rep, seed)
				spec.Padded = padded
				cells = append(cells, measureCell("EXP08", a, n, spec))
			})
		}
	}
	return cells
}

func exp08Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP08 — padding ablation (§4.7): execution-stack block sharing")
	t := harness.NewTable(w, "Algorithm", "p", "padded", "blockMiss", "blockWait", "makespan", "stackHW")
	for _, r := range rows {
		t.Line(r.Algo, harness.F(r.P), harness.F(r.Padded),
			harness.F(r.BlockMisses+r.UpgradeMisses), harness.F(r.BlockWait),
			harness.F(r.Makespan), harness.F(r.StackHighWater))
	}
	t.Flush()
}

// EXP09 checks Lemma 4.12's running-time form: makespan should be
// O((W + b·Q)/p + sP·T∞) with sP = b·(1+⌈log₂p⌉).  Bound is that formula,
// Ratio = makespan/bound (should be Θ(1) across p), and Finish fills
// Aux1 = speedup over the p=1 run.
func exp09Cells(p Params) []harness.Cell {
	procs := []int{1, 2, 4, 8, 16}
	if p.Quick {
		procs = []int{1, 4, 16}
	}
	algos := []string{"Scan(M-Sum)", "Scan(PS)", "MT (BI)", "RM to BI",
		"BI-RM (gap RM)", "BI-RM for FFT", "Strassen (BI)", "Depth-n-MM", "FFT"}
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, name := range algos {
			a, _ := FindAlgo(name)
			n := a.Sizes[1]
			for _, pr := range procs {
				spec := stamp(DefaultSpec(pr), rep, seed)
				cells = append(cells, harness.Cell{
					Exp: "EXP09", Label: a.Name,
					Run: func() []harness.Row {
						r := measure("EXP09", a, n, spec)
						b := spec.MissLatency
						sP := b * int64(1+ceilLog2(pr))
						q := r.CacheMisses // misses actually incurred
						r.Bound = float64((r.Work+b*q)/int64(pr) + sP*r.CritPath)
						r.Ratio = float64(r.Makespan) / r.Bound
						return []harness.Row{r}
					},
				})
			}
		}
	})
	return cells
}

func exp09Finish(rows []harness.Row) []harness.Row {
	for i, r := range rows {
		if base, ok := baseFor(rows, r); ok {
			rows[i].Aux1 = float64(base.Makespan) / float64(r.Makespan)
		}
	}
	return rows
}

func exp09Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP09 — Lemma 4.12: makespan vs (W + b·Q)/p + sP·T∞")
	t := harness.NewTable(w, "Algorithm", "p", "makespan", "bound", "ratio", "speedup")
	for _, r := range rows {
		t.Line(r.Algo, harness.F(r.P), harness.F(r.Makespan), harness.F(int64(r.Bound)),
			harness.F(r.Ratio), harness.F(r.Aux1))
	}
	t.Flush()
}

func ceilLog2(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}
