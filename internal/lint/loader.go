package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one typechecked analysis unit: its syntax, its type
// information, and the Sizes used to compute real struct layouts.  A unit is
// a package together with its in-package test files, or its external test
// package, whose Path carries the "_test" suffix.  Load builds them from the
// go command's package list with the standard library alone: go/parser for
// the unit's files, go/types against its dependencies' export data.
type Package struct {
	Path   string // import path ("_test"-suffixed for external test packages)
	Dir    string
	ModDir string // root directory of the package's module ("" outside one)
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Sizes  types.Sizes
}

// listed is the part of one `go list -json` record Load reads.
type listed struct {
	ImportPath string
	Dir        string
	ForTest    string
	DepOnly    bool
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Module     *struct{ Dir string }
	Error      *struct{ Err string }
}

// Load runs `go list -e -json -export -deps -test` once in dir over the
// given patterns and typechecks every analysis unit it names against its
// dependencies' export data, so the go command decides build constraints,
// test variants and dependency order, and only the analysed packages are
// parsed.  The units are each matched package, with its in-package test
// files when it has any (go list's "p [p.test]"), and its external test
// package ("p_test [p.test]", analysed as p_test); packages recompiled for
// another package's test and the generated test mains are skipped.  A
// pattern that matches nothing, a listed package with an error, or a unit
// that fails to typecheck fails the whole load.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,ForTest,DepOnly,Export,GoFiles,ImportMap,Module,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil || stderr.Len() > 0 {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.Bytes())
	}

	byPath := map[string]*listed{} // every listed package, by its listed path
	units := map[string]*listed{}  // analysis path -> unit
	var testMains []string
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, strings.TrimSpace(p.Error.Err))
		}
		byPath[p.ImportPath] = &p
		if p.DepOnly {
			continue
		}
		path, _, _ := strings.Cut(p.ImportPath, " ")
		switch {
		case p.ForTest == "":
			if units[path] == nil {
				units[path] = &p
			}
		case path == p.ForTest || path == p.ForTest+"_test":
			units[path] = &p // a test variant replaces the plain package
			testMains = append(testMains, p.ForTest+".test")
		}
	}
	for _, m := range testMains {
		delete(units, m)
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("lint: go list %s: no packages", strings.Join(patterns, " "))
	}

	paths := make([]string, 0, len(units))
	for path := range units {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	fset := token.NewFileSet()
	sizes := types.SizesFor("gc", runtime.GOARCH)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		u := units[path]
		p := &Package{Path: path, Dir: u.Dir, Fset: fset, Sizes: sizes}
		if u.Module != nil {
			p.ModDir = u.Module.Dir
		}
		for _, name := range u.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(u.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.Files = append(p.Files, f)
		}
		// The gc importer hands lookup the import path as the source spells
		// it; the unit's ImportMap names the variant it was built against.
		lookup := func(imp string) (io.ReadCloser, error) {
			if mapped, ok := u.ImportMap[imp]; ok {
				imp = mapped
			}
			dep := byPath[imp]
			if dep == nil || dep.Export == "" {
				return nil, fmt.Errorf("no export data for %q", imp)
			}
			return os.Open(dep.Export)
		}
		p.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup), Sizes: sizes}
		if p.Pkg, err = conf.Check(path, fset, p.Files, p.Info); err != nil {
			return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
