// Command hbplint runs the repo's paper-aware static analysis suite
// (internal/lint) over the module: the falseshare layout linter, the
// atomicmix mixed-access checker, and the fjdiscipline, determinism and
// grainaudit analyzers.  It is a blocking gate in CI and scripts/run_all.sh.
//
//	hbplint ./...          # whole module (the CI invocation)
//	hbplint ./internal/rt  # specific package directories
//	hbplint -list          # describe the analyzers
//
// Output is deterministic — findings sorted by file, line, column — and
// printed as file:line:col: analyzer: message, so failures diff cleanly.
// The exit status is 1 when any finding is active, 2 on a loading error.
// Suppress an intentional finding on its line (or the line above) with
//
//	//lint:allow <analyzer> <reason>
//
// where the reason text is mandatory.  The -stats flag also reports how
// many findings the tree's annotations currently suppress.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	stats := flag.Bool("stats", false, "also report suppressed-finding counts")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fail(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fail(err)
	}

	var pkgs []*lint.Package
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			ps, err := loader.LoadModule()
			if err != nil {
				fail(err)
			}
			pkgs = append(pkgs, ps...)
			continue
		}
		dir, err := filepath.Abs(arg)
		if err != nil {
			fail(err)
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			fail(fmt.Errorf("hbplint: %s is outside the module", arg))
		}
		path := loader.ModPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		ps, err := loader.LoadDir(dir, path)
		if err != nil {
			fail(err)
		}
		pkgs = append(pkgs, ps...)
	}

	active, suppressed := lint.Check(pkgs, analyzers)
	for _, f := range active {
		if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = rel
		}
		fmt.Println(f)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "hbplint: %d package(s), %d active finding(s), %d suppressed by lint:allow\n",
			len(pkgs), len(active), len(suppressed))
	}
	if len(active) > 0 {
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the first go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("hbplint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
