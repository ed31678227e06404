// Command benchmark is the repo's performance benchmark: four named
// workloads measured end to end with tracing off, and one traced pass that
// times every layer from outside, by calling its public functions.  See
// README.md in this directory for why each workload exists, what every
// metric means on every workload, and which layer metric should move which
// end-to-end metric; BENCHMARK.json at the repo root is the contract the
// pipeline checks.
//
//	go run ./benchmark -seed 7                        # all four workloads, end-to-end metrics
//	go run ./benchmark -seed 7 -workload serve_small  # one workload
//	go run ./benchmark -seed 7 -trace 1               # the traced pass: per-layer metrics + out/trace.jsonl
//	go run ./benchmark -check-repeat                  # two passes must agree within the declared bounds
//
// Every run prints one line per metric (workload metric value unit
// n=<samples>) and ends with one JSON object per workload; the exit code
// is non-zero when any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// procs is the fixed machine sizing: P = min(NumCPU, 4) workers, clients
// and GOMAXPROCS, so the numbers are what a user of the zero-value
// serve.Config and rt.NewPool(0, …) gets on a small box.
var procs = min(runtime.NumCPU(), 4)

// scale sizes one run.  The driver passes seconds; short is the smoke
// test's scale (small kernels, a prefix of the quick simulator grid).
type scale struct {
	seconds float64
	short   bool
	setups  int // set-ups per run when positive; the traced pass makes one
}

// setupReps is how many times a workload sets up; setup_s is the median.
func (sc scale) setupReps(normal int) int {
	if sc.setups > 0 {
		return sc.setups
	}
	return normal
}

// metric is one reported number with the sample count behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// result is what one workload (or the traced pass) reports.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Metrics   []metric
	Notes     []string // printed as comment lines ahead of the metrics
}

func (r *result) add(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{name, v, unit, n})
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// value returns the metric already added under name.
func (r *result) value(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// separation notes whether metric name stays within share of whole — the
// printed check that a layer does little on the workload meant to bypass it.
func (r *result) separation(name string, whole float64, of string, share float64) {
	verdict := "holds"
	if v := r.value(name); !(v <= share*whole) {
		verdict = "VIOLATED"
	}
	r.note("separation %s: %s = %.4g is within %.0f%% of %s = %.4g", verdict, name, r.value(name), 100*share, of, whole)
}

// workloads maps each normative workload name to its untraced run.
var workloads = []struct {
	name string
	run  func(seed uint64, sc scale, tr *tracer) (result, error)
}{
	{"serve_small", runServeSmall},
	{"serve_mixed", runServeMixed},
	{"kernels_direct", runKernelsDirect},
	{"sim_grid", runSimGrid},
}

func findWorkload(name string) (func(uint64, scale, *tracer) (result, error), bool) {
	for _, w := range workloads {
		if w.name == name {
			return w.run, true
		}
	}
	return nil, false
}

// report prints the human-readable metric lines followed by the contract's
// JSON object (always the last line a run prints).
func report(w io.Writer, r result) error {
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.Workload, m.Name, m.Value, m.Unit, m.N)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]jm{}}
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is not finite", r.Workload, m.Name)
		}
		out.Metrics[m.Name] = jm{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// tracePath is where the traced pass writes its spans.
var tracePath = filepath.Join("benchmark", "out", "trace.jsonl")

// runOne executes one contract invocation: an untraced workload run, or —
// with trace on — the layer pass.  The layer pass is one pass over every
// layer whichever workload is named, because the contract asks each traced
// run to print every per-layer metric.
func runOne(w io.Writer, name string, seed uint64, sc scale, trace bool) (bool, error) {
	run, ok := findWorkload(name)
	if !ok {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	var (
		res result
		err error
	)
	if trace {
		tr := newTracer()
		res, err = runLayers(seed, sc, tr)
		if err == nil {
			err = tr.writeFile(tracePath)
		}
		res.Workload = name
	} else {
		res, err = run(seed, sc, nil)
	}
	if err != nil {
		return false, fmt.Errorf("%s: %w", name, err)
	}
	return res.Failed == 0, report(w, res)
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: serve_small, serve_mixed, kernels_direct or sim_grid (default: all four)")
		seed     = flag.Uint64("seed", 0, "seed for every generated input, arrival time and verification sample")
		seconds  = flag.Float64("seconds", 20, "timed length of one workload run (sim_grid is fixed work)")
		trace    = flag.Int("trace", 0, "1 runs the traced layer pass and writes "+tracePath)
		repeat   = flag.Bool("check-repeat", false, "run the untraced set -repeats times and fail if any end-to-end metric worsens by more than its BENCHMARK.json bound")
		repeats  = flag.Int("repeats", 2, "passes made by -check-repeat")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	fmt.Printf("# benchmark: P=%d GOMAXPROCS=%d NumCPU=%d seed=%d seconds=%g trace=%d\n",
		procs, procs, runtime.NumCPU(), *seed, *seconds, *trace)
	sc := scale{seconds: *seconds}

	if *repeat {
		ok, err := checkRepeat(os.Stdout, *seed, sc, *repeats)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
		if *trace == 1 {
			names = names[:1] // the layer pass covers all four at once
		}
	}
	allOK := true
	for _, name := range names {
		ok, err := runOne(os.Stdout, name, *seed, sc, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		allOK = allOK && ok
	}
	if !allOK {
		os.Exit(1)
	}
}
