// Package harness turns the experiment suite into a data-driven grid.
//
// An experiment is a list of Cells; each Cell is an independent unit of
// simulated work that yields typed Row records.  Execute runs the cells of a
// grid concurrently on a fixed number of plain goroutines and flattens the
// per-cell rows back in cell order, so the emitted row set is identical
// whatever the parallelism.  Cells are coarse (milliseconds to seconds),
// independent and never fork, so each goroutine simply claims the next cell
// index; work stealing would have nothing to balance.
//
// Rows are machine-readable (JSON lines and CSV, see emit.go) and aggregate
// across repeats (agg.go); EXPERIMENTS.md documents the schema and how every
// experiment maps to a paper artifact.
package harness

import (
	"sync"
	"sync/atomic"
)

// Spec describes one simulated machine/scheduler configuration.  It is the
// unit a sweep varies and the identity stamped on every Row.
type Spec struct {
	P           int
	M           int
	B           int
	MissLatency int64
	Sched       string // "pws" (default) or "rws"
	Padded      bool
	Repeat      int    // repeat index within a sweep (0-based)
	Seed        uint64 // input seed for this repeat
}

// Cell is one independent unit of grid work.  Run must be safe to call
// concurrently with other cells' Run functions (each cell builds its own
// simulated machine).  Exclusive cells measure wall clock on real hardware
// themselves (EXP13, EXP16) and are run one at a time, after the concurrent
// batch.
type Cell struct {
	Exp       string
	Label     string
	Exclusive bool
	Run       func() []Row
}

// Execute runs every cell and returns the concatenated rows in cell order.
// The non-exclusive cells run on max(1, min(parallel, count)) goroutines,
// each taking the next cell from a shared counter; exclusive cells then run
// serially.  Row order — and, for deterministic cells, row content — is
// independent of parallelism.
func Execute(cells []Cell, parallel int) []Row {
	out := make([][]Row, len(cells))
	var shared, exclusive []int
	for i := range cells {
		if cells[i].Exclusive {
			exclusive = append(exclusive, i)
		} else {
			shared = append(shared, i)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range max(1, min(parallel, len(shared))) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(shared) {
					return
				}
				i := shared[k]
				out[i] = cells[i].Run()
			}
		}()
	}
	wg.Wait()
	for _, i := range exclusive {
		out[i] = cells[i].Run()
	}
	var rows []Row
	for _, rs := range out {
		rows = append(rows, rs...)
	}
	return rows
}
