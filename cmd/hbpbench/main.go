// Command hbpbench runs the paper-reproduction experiment grid.  Without
// flags it renders every experiment's paper-style table; the structured
// modes emit the same runs as typed rows (JSON lines or CSV) and can write
// a timestamped runs/<stamp>/{csv,logs} directory for diffable archives.
//
// -list shows each experiment with its kernel-registry backend: "sim"
// experiments drive the simulated multicore, "real" experiments drive the
// internal/rt runtime on actual hardware.  The real-backend catalog is the
// real lowering of the fj-unified kernels (internal/fj), so EXP13 sweeps
// every kernel ported to the unified frontend automatically.
//
//	hbpbench -list
//	hbpbench -exp EXP06
//	hbpbench -quick -exp EXP13        # real-hardware padded-vs-compact sweep
//	hbpbench -quick -exp EXP14        # analytical model check (internal/model)
//	hbpbench -quick -parallel 8 -json
//	hbpbench -quick -repeats 3 -csv
//	hbpbench -quick -out runs
//
// See EXPERIMENTS.md for the row schema, the grid format and how each
// experiment maps to a paper artifact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/harness"
)

func main() {
	var (
		expID    = flag.String("exp", "", "run a single experiment (e.g. EXP01); empty = all")
		list     = flag.Bool("list", false, "list experiments and exit")
		quick    = flag.Bool("quick", false, "smaller sweeps for a fast pass")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "grid cells run concurrently on this many goroutines (1 = serial)")
		repeats  = flag.Int("repeats", 1, "seeded repeats per grid cell (mean/std in the summary)")
		seed     = flag.Uint64("seed", 0, "base input seed; repeat r uses seed+r")
		jsonOut  = flag.Bool("json", false, "emit rows as JSON lines on stdout instead of text tables")
		csvOut   = flag.Bool("csv", false, "emit rows as CSV on stdout instead of text tables")
		canon    = flag.Bool("canon", false, "normalize rows (zero wall-clock and volatile fields) for byte-stable diffs")
		outDir   = flag.String("out", "", "also write runs/<stamp>/{csv,logs} under this directory")
	)
	flag.Parse()

	exps := bench.Experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-7s %-5s %s\n", e.ID, e.Backend, e.Desc)
		}
		return
	}

	var selected []bench.Experiment
	for _, e := range exps {
		if *expID == "" || strings.EqualFold(e.ID, *expID) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "hbpbench: no experiment matches %q (try -list)\n", *expID)
		os.Exit(2)
	}

	params := bench.Params{Quick: *quick, Repeats: *repeats, Seed: *seed}
	var rows []harness.Row
	for _, e := range selected {
		rows = append(rows, e.Rows(params, *parallel)...)
	}
	if *canon {
		rows = harness.Normalize(rows)
	}

	switch {
	case *jsonOut:
		check(harness.WriteJSONL(os.Stdout, rows))
	case *csvOut:
		check(harness.WriteCSV(os.Stdout, rows))
	default:
		renderAll(os.Stdout, selected, rows)
	}

	if *outDir != "" {
		dir, err := writeRunDir(*outDir, selected, rows)
		check(err)
		fmt.Fprintf(os.Stderr, "hbpbench: wrote %s\n", dir)
	}
}

// renderAll renders each experiment's paper-style table from its rows.
func renderAll(w io.Writer, exps []bench.Experiment, rows []harness.Row) {
	for _, e := range exps {
		e.Render(w, rowsFor(rows, e.ID))
	}
}

func rowsFor(rows []harness.Row, exp string) []harness.Row {
	var out []harness.Row
	for _, r := range rows {
		if r.Exp == exp {
			out = append(out, r)
		}
	}
	return out
}

// writeRunDir archives one invocation as <base>/<stamp>/:
//
//	csv/rows.csv      every row
//	csv/summary.csv   mean/std across repeats per grid cell
//	rows.jsonl        every row, one JSON object per line
//	logs/tables.txt   the rendered paper-style tables
func writeRunDir(base string, exps []bench.Experiment, rows []harness.Row) (string, error) {
	stamp := time.Now().Format("2006-01-02_150405")
	dir := filepath.Join(base, stamp)
	for _, sub := range []string{"csv", "logs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return "", err
		}
	}
	files := []struct {
		path  string
		write func(io.Writer) error
	}{
		{filepath.Join(dir, "csv", "rows.csv"), func(w io.Writer) error { return harness.WriteCSV(w, rows) }},
		{filepath.Join(dir, "csv", "summary.csv"), func(w io.Writer) error {
			return harness.WriteAggCSV(w, harness.Aggregate(rows))
		}},
		{filepath.Join(dir, "rows.jsonl"), func(w io.Writer) error { return harness.WriteJSONL(w, rows) }},
		{filepath.Join(dir, "logs", "tables.txt"), func(w io.Writer) error {
			renderAll(w, exps, rows)
			return nil
		}},
	}
	for _, f := range files {
		out, err := os.Create(f.path)
		if err != nil {
			return "", err
		}
		if err := f.write(out); err != nil {
			out.Close()
			return "", err
		}
		if err := out.Close(); err != nil {
			return "", err
		}
	}
	return dir, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbpbench:", err)
		os.Exit(1)
	}
}
