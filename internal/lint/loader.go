package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one typechecked package ready for analysis: its syntax, its
// type information, and the Sizes used to compute real struct layouts.
type Package struct {
	Path  string // import path ("_test"-suffixed for external test packages)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Sizes types.Sizes
}

// Loader loads and typechecks the module's packages in dependency order
// using only the standard library: module-internal imports are resolved by
// walking the module tree, everything else (the standard library) is
// typechecked from source via go/importer's "source" compiler, so no
// compiled export data and no x/tools dependency is needed.
type Loader struct {
	ModRoot string // absolute module root (directory holding go.mod)
	ModPath string // module path from go.mod

	fset    *token.FileSet
	sizes   types.Sizes
	stdlib  types.Importer
	cache   map[string]*types.Package // import-facing packages (no test files)
	loading map[string]bool           // cycle guard
}

// NewLoader creates a loader for the module rooted at modRoot.
func NewLoader(modRoot string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: abs,
		ModPath: modPath,
		fset:    fset,
		sizes:   sizes,
		stdlib:  importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*types.Package{},
		loading: map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import resolves one import path for the typechecker: module-internal
// paths load (and cache) the package's non-test files; everything else is
// delegated to the source importer.  This makes Loader a types.Importer,
// so dependency order falls out of the typechecker's own recursion.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		if l.loading[path] {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		dir := filepath.Join(l.ModRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/"))
		nonTest, _, _, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if len(nonTest) == 0 {
			return nil, fmt.Errorf("lint: no Go files for %q in %s", path, dir)
		}
		pkg, _, err := l.check(path, nonTest)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg
		return pkg, nil
	}
	return l.stdlib.Import(path)
}

// parseDir parses every .go file of dir into three groups: non-test files,
// in-package test files, and external (_test-package) test files.
func (l *Loader) parseDir(dir string) (nonTest, inTest, extTest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	basePkg := ""
	for _, name := range names {
		// The build the analyzers model is the default, non-instrumented
		// one: this GOOS/GOARCH, file-name suffixes and //go:build lines
		// alike, and no "race" tag.  Without this filter a pair of
		// tag-alternated files (internal/arena's poison switch, matmul's
		// tile kernel) would typecheck as a redeclaration.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, nil, nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			nonTest = append(nonTest, f)
			basePkg = f.Name.Name
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	// A directory holding only in-package test files (the module root's
	// benchmark files) still forms a package.
	if basePkg == "" && len(inTest) > 0 {
		nonTest, inTest = inTest, nil
	}
	return nonTest, inTest, extTest, nil
}

// testVariant returns the loader an external test package of path is
// typechecked with: files — the package with its in-package test files,
// which is how an export_test.go file reaches the external tests — stand in
// for path, and every module package is typechecked afresh against them, as
// the go tool rebuilds the packages a test imports.
func (l *Loader) testVariant(path string, files []*ast.File) (*Loader, error) {
	v := *l
	v.cache, v.loading = map[string]*types.Package{}, map[string]bool{}
	pkg, _, err := v.check(path, files)
	if err != nil {
		return nil, err
	}
	v.cache[path] = pkg
	return &v, nil
}

// check typechecks one file set as the package at path.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l, Sizes: l.sizes}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return pkg, info, nil
}

// LoadDir loads the package in dir for analysis under the given import
// path, test files included: the in-package test files are typechecked
// together with the package sources, and an external _test package, if
// present, becomes a second Package with "_test" appended to its path,
// typechecked against the first (see testVariant).
func (l *Loader) LoadDir(dir, path string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	nonTest, inTest, extTest, err := l.parseDir(abs)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	ext := l
	if len(nonTest) > 0 {
		files := append(append([]*ast.File{}, nonTest...), inTest...)
		pkg, info, err := l.check(path, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &Package{Path: path, Dir: abs, Fset: l.fset, Files: files, Pkg: pkg, Info: info, Sizes: l.sizes})
		if len(inTest) > 0 && len(extTest) > 0 {
			if ext, err = l.testVariant(path, files); err != nil {
				return nil, err
			}
		}
	}
	if len(extTest) > 0 {
		pkg, info, err := ext.check(path+"_test", extTest)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &Package{Path: path + "_test", Dir: abs, Fset: l.fset, Files: extTest, Pkg: pkg, Info: info, Sizes: l.sizes})
	}
	return pkgs, nil
}

// LoadModule loads every package under the module root (skipping testdata,
// version control, and run-archive directories), in deterministic directory
// order, test files included.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git", "runs", "vendor":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModPath
		if rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		ps, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, ps...)
	}
	return pkgs, nil
}
