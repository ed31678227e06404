// Package bench is the experiment suite: one data-driven experiment per
// paper artifact (Table 1 and the bound lemmas).  Each experiment expands
// into independent grid cells (internal/harness.Cell) that run concurrently
// and yield typed harness.Row records;
// the paper-style text tables are rendered from those rows, and the same
// rows feed the CSV/JSON emitters and the cross-repeat aggregation.  See
// EXPERIMENTS.md for the row schema and the experiment-to-paper mapping.
// The experiments are invoked from the root bench_test.go benchmarks and
// from cmd/hbpbench.
//
// Each simulator decision has one home: a Spec's machine, engine and
// scheduler are built by Run (and Record, which keeps the run's tape, for
// EXP01's f(r)/L(r) pass, cmd/hbptrace and EXP14's replays), the default
// machine is machine.Default, and every lemma bound a row is checked
// against comes from internal/model.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Spec describes one run; it is the harness grid spec, re-exported so the
// catalog and the commands speak one type.
type Spec = harness.Spec

// DefaultSpec is the tall-cache machine of machine.Default (M = 1024 words,
// B = 16 words so M = B²·4, b = 8) under PWS, which a sweep starts from.
func DefaultSpec(p int) Spec {
	c := machine.Default(p)
	return Spec{P: c.P, M: c.M, B: c.B, MissLatency: c.MissLatency, Sched: "pws"}
}

func scheduler(s Spec) core.Scheduler {
	if s.Sched == "rws" {
		return sched.NewRWS(12345)
	}
	return sched.NewPWS()
}

// schedName normalizes the spec's scheduler tag for row identity.
func schedName(s Spec) string {
	if s.Sched == "rws" {
		return "rws"
	}
	return "pws"
}

// Algo is a catalog entry: a named HBP algorithm with its paper parameters
// (Table 1 columns) and a builder that allocates inputs on a fresh machine
// and returns the computation root.  The catalog itself lives in
// internal/algos/registry (backend "sim"); Algo is the registry's SimKernel,
// re-exported so the experiment drivers keep their vocabulary.
type Algo = registry.SimKernel

// Run executes the algorithm at size n under the spec on a fresh machine,
// seeding the inputs from spec.Seed.
func Run(a Algo, n int64, spec Spec) core.Result {
	m := newMachine(spec)
	root := a.Build(m, n, spec.Seed)
	return newEngine(m, spec).Run(root)
}

// Record is Run under core.Engine.Record: it returns with the result the
// run's tape, or why it could not record one.
func Record(a Algo, n int64, spec Spec) (core.Result, *core.Tape, error) {
	m := newMachine(spec)
	root := a.Build(m, n, spec.Seed)
	return newEngine(m, spec).Record(root)
}

// newMachine builds the spec's fresh machine.
func newMachine(spec Spec) *machine.Machine {
	return machine.New(machine.Config{P: spec.P, M: spec.M, B: spec.B, MissLatency: spec.MissLatency})
}

// newEngine builds the spec's engine over m.
func newEngine(m *machine.Machine, spec Spec) *core.Engine {
	return core.NewEngine(m, scheduler(spec), core.Options{Padded: spec.Padded})
}

// rowFrom flattens a simulator result into the harness row schema.
func rowFrom(exp string, algo string, n int64, spec Spec, res core.Result, wall time.Duration) harness.Row {
	return harness.Row{
		Exp: exp, Algo: algo, N: n,
		P: spec.P, M: spec.M, B: spec.B,
		Sched: schedName(spec), Padded: spec.Padded,
		Repeat: spec.Repeat, Seed: spec.Seed,

		Makespan:         res.Makespan,
		Work:             res.Work,
		CritPath:         res.CritPath,
		CacheMisses:      res.Total.ColdMisses,
		BlockMisses:      res.Total.BlockMisses,
		UpgradeMisses:    res.Total.UpgradeMisses,
		BlockWait:        res.Total.BlockWait,
		Transfers:        res.BlockTransfers,
		Steals:           res.Steals,
		StealAttempts:    res.StealAttempts,
		MaxStealsPerPrio: res.MaxStealsPerPrio(),
		DistinctPrios:    int64(res.DistinctPrios),
		Usurpations:      res.Usurpations,
		StackHighWater:   res.StackHighWater,
		IdleTime:         res.Total.IdleTime,

		WallNS: wall.Nanoseconds(),
	}
}

// measure runs one (algo, n, spec) cell and returns its row.
func measure(exp string, a Algo, n int64, spec Spec) harness.Row {
	return timed(exp, a, n, spec, Run)
}

// timed runs one (algo, n, spec) cell with run and returns its row.
func timed(exp string, a Algo, n int64, spec Spec, run func(Algo, int64, Spec) core.Result) harness.Row {
	start := time.Now() //lint:allow determinism wall-clock feeds only WallNS, which Normalize zeroes for -canon
	res := run(a, n, spec)
	return rowFrom(exp, a.Name, n, spec, res, time.Since(start))
}

// Catalog returns every Table-1 algorithm, sized for simulator-scale runs.
// It is the registry's sim backend (internal/algos/registry).
func Catalog() []Algo { return registry.SimKernels() }

// FindAlgo returns the catalog entry with the given name.
func FindAlgo(name string) (Algo, bool) {
	k, ok := registry.Find(name, registry.Sim)
	if !ok {
		return Algo{}, false
	}
	return *k.Sim, true
}

// Params configures one harness invocation: how big the sweeps are and how
// many seeded repeats each grid cell runs.
type Params struct {
	Quick   bool
	Repeats int
	Seed    uint64
}

func (p Params) reps() int {
	if p.Repeats <= 0 {
		return 1
	}
	return p.Repeats
}

// eachRepeat invokes fn once per repeat with the repeat index and its seed.
func (p Params) eachRepeat(fn func(rep int, seed uint64)) {
	for r := 0; r < p.reps(); r++ {
		fn(r, p.Seed+uint64(r))
	}
}

// stamp tags a spec with the repeat identity.
func stamp(spec Spec, rep int, seed uint64) Spec {
	spec.Repeat, spec.Seed = rep, seed
	return spec
}

// Experiment is a registered driver: a cell builder (the grid), an optional
// finish pass that fills cross-cell derived columns (excess over the serial
// base, speedups), and a renderer for the paper-style text table.  Backend
// says which kernel registry backend the experiment drives: the simulated
// multicore (registry.Sim) or real hardware via internal/rt (registry.Real).
type Experiment struct {
	ID      string
	Desc    string
	Backend registry.Backend
	Cells   func(p Params) []harness.Cell
	Finish  func(rows []harness.Row) []harness.Row
	Render  func(w io.Writer, rows []harness.Row)
}

// Rows expands the experiment's grid, executes it with the given
// parallelism, and applies the finish pass.
func (e Experiment) Rows(p Params, parallel int) []harness.Row {
	rows := harness.Execute(e.Cells(p), parallel)
	if e.Finish != nil {
		rows = e.Finish(rows)
	}
	return rows
}

// Experiments returns all drivers in id order.
func Experiments() []Experiment {
	sim, real := registry.Sim, registry.Real
	return []Experiment{
		{"EXP01", "Table 1: structural parameters of every HBP algorithm", sim, exp01Cells, nil, exp01Render},
		{"EXP02", "Lemma 4.4: BP cache-miss excess is O(pM/B)", sim, exp02Cells, exp02Finish, exp02Render},
		{"EXP03", "Lemma 4.1: Type-2 HBP cache-miss excess", sim, exp03Cells, exp03Finish, exp03Render},
		{"EXP04", "Lemmas 4.8/4.9/4.2: block-miss (false-sharing) excess", sim, exp04Cells, nil, exp04Render},
		{"EXP05", "Obs 4.3 + Cor 4.1: steal counts per priority and attempts", sim, exp05Cells, nil, exp05Render},
		{"EXP06", "PWS vs RWS: the headline scheduler comparison", sim, exp06Cells, exp06Finish, exp06Render},
		{"EXP07", "Gapping ablation: Direct BI-RM vs BI-RM (gap RM)", sim, exp07Cells, nil, exp07Render},
		{"EXP08", "Padding ablation (§4.7): padded vs standard stacks", sim, exp08Cells, nil, exp08Render},
		{"EXP09", "Lemma 4.12: runtime decomposition (W+bQ)/p + sP·T∞", sim, exp09Cells, exp09Finish, exp09Render},
		{"EXP10", "Thm 4.1: list ranking bounds and gapping cutoff", sim, exp10Cells, nil, exp10Render},
		{"EXP11", "CC: log n × LR cost shape", sim, exp11Cells, nil, exp11Render},
		{"EXP13", "False-sharing layout sweep: padded vs compact runtime state", real, exp13Cells, exp13Finish, exp13Render},
		{"EXP14", "Analytical model check: fitted bounds per kernel × sched × (n,p,B)", sim, exp14Cells, exp14Finish, exp14Render},
		{"EXP15", "Sort critical path: spms c·lg n·lglg n vs sortx c·lg³ n", sim, exp15Cells, exp15Finish, exp15Render},
		{"EXP16", "Kernel service: throughput and tail latency vs offered load × pool size", real, exp16Cells, exp16Finish, exp16Render},
	}
}

// FindExperiment returns the driver with the given id (case-sensitive).
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// findRow returns the first row matching the predicate.
func findRow(rows []harness.Row, match func(harness.Row) bool) (harness.Row, bool) {
	for _, r := range rows {
		if match(r) {
			return r, true
		}
	}
	return harness.Row{}, false
}

// baseFor finds the serial (P==1) row sharing algo/repeat/note identity with
// r — the baseline the excess columns are computed against.
func baseFor(rows []harness.Row, r harness.Row) (harness.Row, bool) {
	return findRow(rows, func(b harness.Row) bool {
		return b.P == 1 && b.Algo == r.Algo && b.N == r.N && b.Repeat == r.Repeat && b.Note == r.Note
	})
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
