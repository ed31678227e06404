package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/serve"
)

// EXP16 measures the kernel service (internal/serve): closed-loop clients
// submit small sort requests in-process and the cell reports end-to-end
// throughput and admission-to-response latency across offered load (client
// count) × pool size × submission mode.  Every request is one root on the
// service's long-lived pool, so the quantity under test is how that path
// scales with concurrent submitters: the headline column is each cell's
// throughput over the smallest-clients rpc cell at the same pool size.
//
// Each (clients, pool) coordinate runs two modes:
//
//   - mode=rpc    — per-request Submit round trips.
//   - mode=stream — clients submit windows of exp16Window requests through
//     SubmitBatch (the in-process face of the streaming /batch protocol)
//     and drain responses in completion order.
//
// Cells are Exclusive (wall-clock must not share the machine with the
// concurrent harness batch) and rows Volatile, as in EXP12/EXP13.  The
// configuration that is not row identity — client count, submission mode —
// is encoded in Note together with the verification status, because Note
// survives harness.Normalize; the measurements live in volatile-zeroed
// columns (WallNS = cell wall time, Aux1 = requests/s, Aux2/Aux3 = the
// service's own p50/p99 latency in ns, Bound = runtime.NumCPU(), Ratio =
// throughput over the baseline cell, filled by exp16Finish).  Every request
// asks the service to verify its output, so the status in Note is also an
// end-to-end correctness check of the served requests.

// exp16N is the per-request problem size: small enough that the request
// path, not the kernel, dominates.
const exp16N = 256

// exp16Window is how many requests a stream-mode client submits at once.
const exp16Window = 8

// exp16Grid is the sweep: client counts (offered load) and pool sizes.
func exp16Grid(quick bool) (clients, pools []int, requests int) {
	if quick {
		return []int{1, 4}, []int{1, 2}, 64
	}
	return []int{2, 8}, []int{1, 4}, 256
}

func exp16Mode(stream bool) string {
	if stream {
		return "stream"
	}
	return "rpc"
}

// exp16Run drives one cell: a fresh service, `clients` closed-loop client
// goroutines issuing `requests` verified sort submissions between them
// (one at a time under rpc, windows of exp16Window under stream), and a row
// built from the wall clock plus the service's own metrics.
func exp16Run(clients, poolP, requests, rep int, seed uint64, stream bool) harness.Row {
	svc := serve.New(serve.Config{
		Pool: poolP,
		// A closed loop has at most clients×window requests in flight, so
		// this bound can never reject; it exists to keep the
		// admission-control path identical to production configs.
		QueueBound: 4 * clients * exp16Window,
	})
	defer svc.Close()

	var bad atomic.Int64
	check := func(resp serve.Response, err error) {
		if err != nil || resp.Verified == nil || !*resp.Verified {
			bad.Add(1)
		}
	}
	per := requests / clients
	var wg sync.WaitGroup
	start := time.Now() //lint:allow determinism wall-clock feeds WallNS and Volatile-row fields, all zeroed by Normalize for -canon
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			window := 1
			if stream {
				window = exp16Window
			}
			for i := 0; i < per; i += window {
				reqs := make([]serve.Request, min(window, per-i))
				for j := range reqs {
					reqs[j] = serve.Request{
						Kernel: "sort", N: exp16N,
						Seed:   seed + uint64(c*per+i+j),
						Verify: true,
					}
				}
				if !stream {
					check(svc.Submit(context.Background(), reqs[0]))
					continue
				}
				for res := range svc.SubmitBatch(context.Background(), reqs) {
					check(res.Resp, res.Err)
				}
			}
		}(c)
	}
	wg.Wait()
	el := time.Since(start)
	m := svc.Metrics().Snapshot()
	total := clients * per
	return harness.Row{
		Exp: "EXP16", Algo: "sort", N: exp16N, P: poolP,
		Sched: "serve", Repeat: rep, Seed: seed,
		WallNS: el.Nanoseconds(), Volatile: true,
		Aux1:  float64(total) / el.Seconds(),
		Aux2:  float64(m.LatencyP50NS),
		Aux3:  float64(m.LatencyP99NS),
		Bound: numCPU(),
		Note:  fmt.Sprintf("clients=%d mode=%s %s", clients, exp16Mode(stream), statusNote(bad.Load() == 0)),
	}
}

func exp16Cells(p Params) []harness.Cell {
	clients, pools, requests := exp16Grid(p.Quick)
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, cl := range clients {
			for _, po := range pools {
				for _, stream := range []bool{false, true} {
					cl, po, stream := cl, po, stream
					cells = append(cells, harness.Cell{
						Exp:   "EXP16",
						Label: fmt.Sprintf("sort/c%d/p%d/%s", cl, po, exp16Mode(stream)),
						// Wall-clock cells must not share the machine with
						// the concurrent harness batch.
						Exclusive: true,
						Run: func() []harness.Row {
							return []harness.Row{exp16Run(cl, po, requests, rep, seed, stream)}
						},
					})
				}
			}
		}
	})
	return cells
}

// exp16Note recovers the cell coordinates a row's Note encodes.
func exp16Note(r harness.Row) (clients int, mode string, ok bool) {
	var status string
	n, err := fmt.Sscanf(r.Note, "clients=%d mode=%s %s", &clients, &mode, &status)
	return clients, mode, err == nil && n == 3
}

// exp16Finish fills Ratio = this cell's throughput over the rpc cell with
// the fewest clients at the same pool size and repeat — the first such row,
// since exp16Grid lists client counts ascending — so that cell carries
// Ratio 1 and the column reads as scaling with offered load and mode.
func exp16Finish(rows []harness.Row) []harness.Row {
	for i, r := range rows {
		base, found := findRow(rows, func(b harness.Row) bool {
			_, mode, ok := exp16Note(b)
			return ok && mode == "rpc" && b.P == r.P && b.Repeat == r.Repeat
		})
		if found && base.Aux1 > 0 {
			rows[i].Ratio = r.Aux1 / base.Aux1
		}
	}
	return rows
}

func exp16Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP16 — kernel service: throughput and tail latency vs offered load, pool size, submission mode")
	t := harness.NewTable(w, "kernel", "n", "pool", "clients", "mode", "wall", "req/s", "p50", "p99", "scale", "cpus", "status")
	for _, r := range rows {
		clients, mode, _ := exp16Note(r)
		status := ""
		if !strings.HasSuffix(r.Note, " ok") {
			status = "WRONG RESULT"
		}
		t.Line(r.Algo, harness.F(r.N), harness.F(r.P), harness.F(clients), mode,
			time.Duration(r.WallNS).Round(time.Microsecond).String(),
			harness.F(int64(r.Aux1)),
			time.Duration(int64(r.Aux2)).Round(time.Microsecond).String(),
			time.Duration(int64(r.Aux3)).Round(time.Microsecond).String(),
			harness.F(r.Ratio), harness.F(int64(r.Bound)), status)
	}
	t.Flush()
}
