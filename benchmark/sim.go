package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"strings"
	"time"
	"unicode"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/model"
)

// The simulator workload: the full EXP14 grid, every cell run on the
// calling goroutine, so machine/cache/mem/core/sched do all the work and
// rt and serve none (harness.Execute with parallel > 1 is never used).
// The grid is fixed work — ~17 s on the reference box when the host is
// quiet — and deterministic, so its simulated statistics compare exactly
// between commits.
//
// Every cell of the grid runs once, which is enough for the rows but not
// for a time: the host's disturbed spells last seconds and slow a cell by
// half.  So a sample of the grid — the first cell under each label, 30
// cells, every kernel serial and under both schedulers at its smallest
// size — is run again after every grid cell, in turn, ten times each
// spread over the whole pass, and the end-to-end times are read off each
// sampled cell's fastest run.  (Twice as many repeats were tried and
// repeated no better: what is left is the host's drift, not the sampling.)

//go:embed golden/*.sha256
var golden embed.FS

const (
	simWarmCells  = 12 // cells run untimed during set-up
	simShortCells = 16 // cells of the quick grid the smoke scale runs
)

// cellRun is one timed cell.
type cellRun struct {
	slug  string // kernel slug from the cell label
	sched string
	p     int
	ns    int64 // host time in cell.Run()
	work  int64 // simulated unit operations (Row.Work of the first row)
}

type simRun struct {
	ready   simReady // the grid that was run
	cells   []cellRun
	samples []cellSample
	rows    []harness.Row
	gridNS  int64 // host time in the grid's cells and in Finish
	inEnv   int   // rows inside the model's envelope
}

// cellSample is one sampled cell with the host time of each of its runs:
// the one the grid made and the repeats.
type cellSample struct {
	cellRun
	ns []int64
}

func (c *cellSample) add(run cellRun) {
	c.cellRun = run
	c.ns = append(c.ns, run.ns)
}

// fastMS is the sampled cell's undisturbed host time in ms.
func (c *cellSample) fastMS() float64 { return fastest(c.ns, 0) / 1e6 }

// slug turns a cell label's kernel name into a metric-name segment:
// lower-cased, runs of non-alphanumerics collapsed to one underscore.
func slug(label string) string {
	name, _, _ := strings.Cut(label, "/")
	var b strings.Builder
	gap := false
	for _, r := range strings.ToLower(name) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if gap && b.Len() > 0 {
				b.WriteByte('_')
			}
			gap = false
			b.WriteRune(r)
		} else {
			gap = true
		}
	}
	return b.String()
}

type simReady struct {
	exp   bench.Experiment
	cells []harness.Cell
}

// setupSim expands the grid and runs its first cells untimed, so the heap
// has grown and the code is warm before the first timed cell.
func setupSim(seed uint64, short bool) (simReady, error) {
	exp, ok := bench.FindExperiment("EXP14")
	if !ok {
		return simReady{}, fmt.Errorf("experiment EXP14 not registered")
	}
	cells := exp.Cells(bench.Params{Seed: seed, Quick: short})
	if short {
		cells = cells[:simShortCells]
	}
	for _, c := range cells[:simWarmCells] {
		c.Run()
	}
	return simReady{exp, cells}, nil
}

// runCell times one cell and records its span, named kind/label, under
// the grid's.
func runCell(c harness.Cell, kind string, grid int64, tr *tracer) (cellRun, []harness.Row) {
	t0 := time.Now()
	rows := c.Run()
	t1 := time.Now()
	tr.rec(grid, tr.id(), grid, "core", kind+"/"+c.Label, t0, t1)
	return cellRun{slug(c.Label), rows[0].Sched, rows[0].P, t1.Sub(t0).Nanoseconds(), rows[0].Work}, rows
}

// sampled returns the index of the first cell under each label, in grid
// order: the grid walks kernel, block size, size, scheduler and core count
// in that order, so these are every kernel's serial, first PWS and first
// RWS cell at its smallest size.
func (s simReady) sampled() []int {
	var idx []int
	seen := map[string]bool{}
	for i, c := range s.cells {
		if !seen[c.Label] {
			seen[c.Label] = true
			idx = append(idx, i)
		}
	}
	return idx
}

// runGrid runs the cells serially, one span per cell, with one repeat of a
// sampled cell after each, then the finish pass.
func (s simReady) runGrid(tr *tracer) simRun {
	run := simRun{ready: s, cells: make([]cellRun, 0, len(s.cells))}
	idx := s.sampled()
	slot := map[int]int{} // cell index -> its place in run.samples
	for k, i := range idx {
		slot[i] = k
	}
	run.samples = make([]cellSample, len(idx))
	gridID := tr.id()
	start := time.Now()
	for i, c := range s.cells {
		cell, rows := runCell(c, "cell", gridID, tr)
		run.cells = append(run.cells, cell)
		run.rows = append(run.rows, rows...)
		run.gridNS += cell.ns
		if k, ok := slot[i]; ok {
			run.samples[k].add(cell)
		}
		// Then the sampled cell whose turn it is.
		k := i % len(idx)
		again, _ := runCell(s.cells[idx[k]], "repeat", gridID, tr)
		run.samples[k].add(again)
	}
	f0 := time.Now()
	run.rows = s.exp.Finish(run.rows)
	end := time.Now()
	tr.rec(gridID, tr.id(), gridID, "model", "finish", f0, end)
	tr.rec(gridID, gridID, 0, "bench", "grid/EXP14", start, end)
	run.gridNS += end.Sub(f0).Nanoseconds()
	for _, r := range run.rows {
		if model.CheckRatio(model.Quantity(r.Note), r.Ratio, r.Aux2) {
			run.inEnv++
		}
	}
	return run
}

// nsPerOp is host nanoseconds per simulated unit operation over the cells
// the filter keeps.
func (r simRun) nsPerOp(keep func(cellRun) bool) (float64, int) {
	var ns, work int64
	n := 0
	for _, c := range r.cells {
		if keep(c) {
			ns, work, n = ns+c.ns, work+c.work, n+1
		}
	}
	if work == 0 {
		return 0, 0
	}
	return float64(ns) / float64(work), n
}

// digest is the SHA-256 of the normalised rows (host-time fields zeroed)
// in the harness's JSON-lines form.
func (r simRun) digest() (string, error) {
	var b bytes.Buffer
	if err := harness.WriteJSONL(&b, harness.Normalize(r.rows)); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// goldenDigest returns the digest recorded for the seed, if any.
func goldenDigest(seed uint64) (string, bool) {
	b, err := golden.ReadFile(fmt.Sprintf("golden/exp14-seed%d.sha256", seed))
	return strings.TrimSpace(string(b)), err == nil
}

func simGrid(seed uint64, sc scale, tr *tracer) (result, simRun, error) {
	res := result{Workload: "sim_grid"}
	rd, setupS, err := repeatSetup(sc.setupReps(setupReps),
		func() (simReady, error) { return setupSim(seed, sc.short) },
		func(simReady) {})
	if err != nil {
		return res, simRun{}, err
	}
	mem := markMem()
	run := rd.runGrid(tr)
	kb := mem.kbPerOp(len(run.cells))

	res.Attempted = len(run.cells)
	for _, c := range run.cells {
		if c.work <= 0 {
			res.Failed++
		}
	}
	// The end-to-end times come from the sampled cells, each read off its
	// fastest run and taken per simulated operation: a cell's work differs
	// between seeds (spms at n = 4096 does 275 000 to 470 000 unit
	// operations, the host time following), its cost per operation far less.
	var (
		perS, perMops    []float64 // simulated operations per host second and host ms per million of them, per sampled cell
		serial, parallel []float64 // perMops of the serial and of the parallel cells
		repeats          int
	)
	for i := range run.samples {
		c := &run.samples[i]
		perMop := 1e6 * c.fastMS() / float64(c.work)
		perS, perMops = append(perS, 1e9/perMop), append(perMops, perMop)
		if c.p == 1 {
			serial = append(serial, perMop)
		} else {
			parallel = append(parallel, perMop)
		}
		repeats += len(c.ns)
	}
	all, _ := run.nsPerOp(func(cellRun) bool { return true })
	res.note("the grid pass: %d cells, %.2f s in cells and Finish, %.0f simulated ops per host second disturbed or not; %d sampled cells, %d timed runs of them",
		len(run.cells), float64(run.gridNS)/1e9, 1e9/all, len(perS), repeats)
	res.add("setup_s", setupS, "s", sc.setupReps(setupReps))
	res.add("ops_per_s", geomean(perS), "1/s", repeats)
	res.add("lat_typ_ms", geomean(serial), "ms", repeats)
	res.add("lat_tail_ms", geomean(costliest(perMops)), "ms", repeats)
	res.add("heavy_ms", geomean(parallel), "ms", repeats)
	res.add("alloc_kb_per_op", kb, "KB", len(run.cells))
	res.add("ok_share", float64(run.inEnv)/float64(len(run.rows)), "ratio", len(run.rows))
	return res, run, nil
}

func runSimGrid(seed uint64, sc scale, tr *tracer) (result, error) {
	r, _, err := simGrid(seed, sc, tr)
	return r, err
}
