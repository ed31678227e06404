package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// fileNames maps each unit of pkgs to the base names of its files.
func fileNames(pkgs []*Package) map[string][]string {
	names := map[string][]string{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			names[p.Path] = append(names[p.Path], filepath.Base(p.Fset.Position(f.Pos()).Filename))
		}
	}
	return names
}

// TestLoadDefaultBuild pins what is analysed to the default build: of each
// tag-alternated pair only the file this GOARCH, without -race, compiles is
// loaded, so the pair never typechecks as a redeclaration.
func TestLoadDefaultBuild(t *testing.T) {
	names := fileNames(loadModule(t))
	leaf, other := "leaf_amd64.go", "leaf_other.go"
	if runtime.GOARCH != "amd64" {
		leaf, other = other, leaf
	}
	for _, c := range []struct{ path, in, out string }{
		{"repro/internal/arena", "poison_off.go", "poison_race.go"},
		{"repro/internal/algos/matmul", leaf, other},
		{"repro/internal/algos/matmul", "norace.go", "race.go"},
	} {
		if files := names[c.path]; !slices.Contains(files, c.in) || slices.Contains(files, c.out) {
			t.Errorf("%s files %v: want %s and not %s", c.path, files, c.in, c.out)
		}
	}
}

// TestLoadTestUnits pins the units: a package's in-package _test.go files
// belong to its Package, and a package with external tests also yields a
// <path>_test unit holding exactly those.
func TestLoadTestUnits(t *testing.T) {
	names := fileNames(loadModule(t))
	if files := names["repro/internal/rt"]; !slices.Contains(files, "rt.go") || !slices.Contains(files, "rt_test.go") {
		t.Errorf("repro/internal/rt files %v: want rt.go with rt_test.go", files)
	}
	for _, dir := range []string{"internal/core", "internal/fj", "internal/bench"} {
		path := "repro/" + dir
		if len(names[path]) == 0 {
			t.Errorf("no unit %s", path)
		}
		files := names[path+"_test"]
		if len(files) == 0 {
			t.Errorf("no unit %s_test", path)
		}
		for _, name := range files {
			src, err := os.ReadFile(filepath.Join("../..", dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasSuffix(name, "_test.go") || !strings.Contains(string(src), "package "+filepath.Base(dir)+"_test") {
				t.Errorf("%s_test holds %s, not an external test file", path, name)
			}
		}
	}
}

// TestLoadUnitsOnce pins that every unit is loaded once, the module root's
// test-only package included.
func TestLoadUnitsOnce(t *testing.T) {
	pkgs := loadModule(t)
	seen := map[string]bool{}
	for _, p := range pkgs {
		if seen[p.Path] {
			t.Errorf("unit %s loaded twice", p.Path)
		}
		seen[p.Path] = true
	}
	if root := fileNames(pkgs)["repro"]; len(root) != 4 {
		t.Errorf("unit repro has files %v, want its 4 test files once", root)
	}
}

// TestLoadErrors pins that Load fails rather than skips: on a pattern that
// matches no package, and on a package that does not typecheck.
func TestLoadErrors(t *testing.T) {
	if pkgs, err := Load(".", "./testdata/..."); err == nil {
		t.Errorf("pattern matching no package: got %d packages, no error", len(pkgs))
	}
	if pkgs, err := Load(".", "./testdata/src/falseshare", "./nosuchdir"); err == nil {
		t.Errorf("one pattern naming no package: got %d packages, no error", len(pkgs))
	}
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module bad\n\ngo 1.24\n",
		"bad.go": "package bad\n\nvar X int = \"x\"\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Load(dir, "./..."); err == nil || !strings.Contains(err.Error(), "bad.go:3") {
		t.Errorf("package with a type error: err = %v, want one naming bad.go:3", err)
	}
}
