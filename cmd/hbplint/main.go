// Command hbplint runs the repo's paper-aware static analysis suite
// (internal/lint) over the module: the falseshare layout linter, the
// atomicmix mixed-access checker, and the fjdiscipline, determinism and
// grainaudit analyzers.  It is a blocking gate in CI and scripts/run_all.sh.
//
//	hbplint                # whole module, the same as hbplint ./... (the CI invocation)
//	hbplint ./internal/rt  # any go list patterns, test files included
//	hbplint -list          # describe the analyzers
//
// Its arguments are go list patterns: the go command selects the packages,
// their files under the default build and their test variants (see
// lint.Load).  Output is deterministic — findings sorted by file, line,
// column — and printed as file:line:col: analyzer: message, the file
// relative to the module root, so failures diff cleanly.  The exit status is
// 1 when any finding is active, 2 on a loading or type error.  Suppress an
// intentional finding on its line (or the line above) with
//
//	//lint:allow <analyzer> <reason>
//
// where the reason text is mandatory.  The -stats flag also reports how
// many findings the tree's annotations currently suppress.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is hbplint with its arguments and output streams; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("hbplint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "describe the analyzers and exit")
	stats := flags.Bool("stats", false, "also report suppressed-finding counts")
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	active, suppressed := lint.Check(pkgs, analyzers)
	for _, f := range active {
		if rel, err := filepath.Rel(pkgs[0].ModDir, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, f)
	}
	if *stats {
		fmt.Fprintf(stderr, "hbplint: %d package(s), %d active finding(s), %d suppressed by lint:allow\n",
			len(pkgs), len(active), len(suppressed))
	}
	if len(active) > 0 {
		return 1
	}
	return 0
}
