package bench

import (
	"io"
	"time"

	"repro/internal/harness"
	"repro/internal/rt"
)

// EXP12 runs representative workloads on the real goroutine work-stealing
// runtime (internal/rt) and reports wall-clock speedups for the random
// (RWS) and priority (PWS-flavoured) victim policies.  This is the
// usability check: the same fork-join programs the simulator analyzes run
// with genuine parallelism.  Cells are Exclusive (one at a time, so the
// timings are not skewed by the harness's own pool) and rows are Volatile
// (wall-clock measurements are not reproducible).  Finish fills
// Aux1 = speedup over the same policy's p=1 run.
func exp12Cells(p Params) []harness.Cell {
	n := 1 << 22
	if p.Quick {
		n = 1 << 20
	}
	// The input depends only on n; build it once and share it read-only
	// across the cells (they run exclusively, and concurrent reads would be
	// safe anyway) instead of paying 32MB + two O(n) passes per cell.
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i % 1000)
	}
	var want int64
	for _, v := range data {
		want += v
	}
	procs := []int{1, 2, 4, 8}
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, policy := range []rt.Policy{rt.Random, rt.Priority} {
			name := map[rt.Policy]string{rt.Random: "random", rt.Priority: "priority"}[policy]
			for _, pr := range procs {
				policy, name, pr := policy, name, pr
				cells = append(cells, harness.Cell{
					Exp: "EXP12", Label: "reduce/" + name, Exclusive: true,
					Run: func() []harness.Row {
						pool := rt.NewPool(pr, policy)
						defer pool.Close()
						var got int64
						start := time.Now() //lint:allow determinism wall-clock feeds WallNS and Volatile-row fields, all zeroed by Normalize for -canon
						pool.Run(func(c *rt.Ctx) {
							got = c.Reduce(0, n, 2048, func(i int) int64 { return data[i] })
						})
						el := time.Since(start)
						r := harness.Row{
							Exp: "EXP12", Algo: "reduce", N: int64(n), P: pr,
							Sched: name, Repeat: rep, Seed: seed,
							Steals: pool.Steals(), StealAttempts: pool.StealAttempts(),
							WallNS:   el.Nanoseconds(),
							Volatile: true, Aux3: numCPU(), Note: statusNote(got == want),
						}
						return []harness.Row{r}
					},
				})
			}
		}
	})
	return cells
}

func exp12Finish(rows []harness.Row) []harness.Row {
	for i, r := range rows {
		base, ok := findRow(rows, func(b harness.Row) bool {
			return b.P == 1 && b.Sched == r.Sched && b.Algo == r.Algo && b.Repeat == r.Repeat
		})
		if ok && r.WallNS > 0 {
			rows[i].Aux1 = float64(base.WallNS) / float64(r.WallNS)
		}
	}
	return rows
}

func exp12Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP12 — goroutine runtime wall-clock speedup")
	t := harness.NewTable(w, "workload", "p", "policy", "time", "speedup", "steals", "cpus", "status")
	for _, r := range rows {
		status := ""
		if r.Note != "ok" {
			status = r.Note
		}
		t.Line(r.Algo, harness.F(r.P), r.Sched,
			time.Duration(r.WallNS).Round(time.Microsecond).String(),
			harness.F(r.Aux1), harness.F(r.Steals), harness.F(int64(r.Aux3)), status)
	}
	t.Flush()
}
