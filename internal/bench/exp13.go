package bench

import (
	"io"
	"runtime"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/fj"
	"repro/internal/harness"
	"repro/internal/rt"
)

// EXP13 is the real-hardware false-sharing ablation: every real-backend
// kernel in the registry — the real lowering of the nine fj-unified
// sources (matmul, strassen, sortx, spms, scan, fft, transpose, gather,
// listrank) — runs on the internal/rt runtime with its hot worker/task
// state laid out either padded (one cache line per contended word, the
// paper's §4.7 discipline applied to the scheduler itself) or compact (all
// workers' deque indices, counters and task frames packed so independent
// writes share lines).  The sweep picks the catalog up from
// registry.FJKernels, so kernels ported to fj join it automatically, and
// each cell runs what the service runs: the kernel's one run adapter on its
// one generated payload, checked by its one verifier.  On a multi-core
// machine the compact arm pays coherence traffic for every push, steal and
// completion — the block-miss penalty the paper's lemmas bound,
// demonstrated on silicon rather than in the simulator.  Cells are
// Exclusive (run alone, after the concurrent batch) and rows Volatile
// (wall clock, zeroed by -canon); every row carries runtime.NumCPU() in
// Aux3 because on a single-core runner (the CI box) neither speedups nor
// the layout gap can show.
//
// Finish fills Aux1 = speedup over the same kernel/layout at p=1 and
// Aux2 = wall(compact)/wall(padded) for the matching cell — the
// false-sharing penalty factor (>1 means padding won).

// statusNote reports a cell's verification outcome.
func statusNote(ok bool) string {
	if ok {
		return "ok"
	}
	return "WRONG RESULT"
}

// numCPU annotates wall-clock rows (Aux3) with the physical core count, so
// speedup claims read against what the runner could actually parallelize
// (on a 1-CPU box all speedups collapse to ~1 and the layout gap hides).
// It rides in a volatile-zeroed Aux column, not Note, so `-canon` output
// stays byte-identical across machines.
func numCPU() float64 { return float64(runtime.NumCPU()) }

func exp13Cells(p Params) []harness.Cell {
	quick := p.Quick
	procs := []int{1, 2, 4, 8}
	layouts := []rt.Layout{rt.LayoutPadded, rt.LayoutCompact}
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, k := range registry.FJKernels() {
			for _, layout := range layouts {
				for _, pr := range procs {
					k, layout, pr := k, layout, pr
					n := k.Size(quick)
					cells = append(cells, harness.Cell{
						Exp: "EXP13", Label: k.Name + "/" + layout.String(), Exclusive: true,
						Run: func() []harness.Row {
							work := k.Setup(fj.NewRealEnv(), int64(n), seed)
							pool := rt.NewPoolLayout(pr, layout)
							defer pool.Close()
							start := time.Now() //lint:allow determinism wall-clock feeds WallNS and Volatile-row fields, all zeroed by Normalize for -canon
							fj.RunReal(pool, work.Root)
							el := time.Since(start)
							return []harness.Row{{
								Exp: "EXP13", Algo: k.Name, N: int64(n), P: pr,
								Sched: "rt", Padded: layout == rt.LayoutPadded,
								Repeat: rep, Seed: seed,
								Steals: pool.Steals(), StealAttempts: pool.StealAttempts(),
								WallNS: el.Nanoseconds(), Volatile: true,
								Aux3: numCPU(), Note: statusNote(work.Verify()),
							}}
						},
					})
				}
			}
		}
	})
	return cells
}

func exp13Finish(rows []harness.Row) []harness.Row {
	for i, r := range rows {
		base, ok := findRow(rows, func(b harness.Row) bool {
			return b.P == 1 && b.Algo == r.Algo && b.Padded == r.Padded && b.Repeat == r.Repeat
		})
		if ok && r.WallNS > 0 {
			rows[i].Aux1 = float64(base.WallNS) / float64(r.WallNS)
		}
		pair, ok := findRow(rows, func(b harness.Row) bool {
			return b.P == r.P && b.Algo == r.Algo && b.Padded != r.Padded && b.Repeat == r.Repeat
		})
		if ok {
			padded, compact := r, pair
			if !r.Padded {
				padded, compact = pair, r
			}
			if padded.WallNS > 0 {
				rows[i].Aux2 = float64(compact.WallNS) / float64(padded.WallNS)
			}
		}
	}
	return rows
}

func exp13Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP13 — false-sharing layout sweep on the real runtime (padded vs compact)")
	t := harness.NewTable(w, "kernel", "n", "p", "layout", "time", "speedup", "compact/padded", "steals", "cpus", "status")
	for _, r := range rows {
		layout := "compact"
		if r.Padded {
			layout = "padded"
		}
		status := ""
		if r.Note != "ok" {
			status = r.Note
		}
		t.Line(r.Algo, harness.F(r.N), harness.F(r.P), layout,
			time.Duration(r.WallNS).Round(time.Microsecond).String(),
			harness.F(r.Aux1), harness.F(r.Aux2), harness.F(r.Steals),
			harness.F(int64(r.Aux3)), status)
	}
	t.Flush()
}
