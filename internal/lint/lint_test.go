package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The loader is shared across tests: typechecking the standard library from
// source is the dominant cost and its results are cached per Loader.
var (
	loaderOnce sync.Once
	testLd     *Loader
	testLdErr  error

	testdataMu    sync.Mutex
	testdataCache = map[string][]*Package{}
)

// moduleRoot walks up from the test working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("lint: no go.mod above the test working directory")
		}
		dir = parent
	}
}

func testLoader(t *testing.T) *Loader {
	t.Helper()
	root := moduleRoot(t)
	loaderOnce.Do(func() { testLd, testLdErr = NewLoader(root) })
	if testLdErr != nil {
		t.Fatalf("NewLoader: %v", testLdErr)
	}
	return testLd
}

// loadTestdata loads testdata/src/<name> under a module-internal import path.
func loadTestdata(t *testing.T, name string) []*Package {
	t.Helper()
	testdataMu.Lock()
	defer testdataMu.Unlock()
	if pkgs, ok := testdataCache[name]; ok {
		return pkgs
	}
	l := testLoader(t)
	dir := filepath.Join("testdata", "src", name)
	path := l.ModPath + "/internal/lint/testdata/src/" + name
	pkgs, err := l.LoadDir(dir, path)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("LoadDir(%s): no packages", dir)
	}
	testdataCache[name] = pkgs
	return pkgs
}

var wantQuoted = regexp.MustCompile(`"([^"]*)"`)

// want is one expectation parsed from a "// want" comment.
type want struct {
	file    string // base filename
	line    int
	substr  string
	matched bool
}

// parseWants collects the // want "substring" expectations of every .go
// file in dir, keyed to the line the comment sits on.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, m := range wantQuoted.FindAllStringSubmatch(rest, -1) {
				wants = append(wants, &want{file: e.Name(), line: i + 1, substr: m[1]})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no // want expectations in %s", dir)
	}
	return wants
}

// runGolden checks the analyzers' findings on testdata/src/<name> against
// the package's // want comments: every finding must match an expectation
// on its line, and every expectation must be hit exactly once.
func runGolden(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	pkgs := loadTestdata(t, name)
	active, suppressed := Check(pkgs, analyzers)
	for _, f := range suppressed {
		t.Errorf("golden packages carry no lint:allow, yet suppressed: %s", f)
	}
	wants := parseWants(t, filepath.Join("testdata", "src", name))
	for _, f := range active {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == filepath.Base(f.Pos.Filename) && w.line == f.Pos.Line &&
				strings.Contains(f.Message, w.substr) {
				w.matched, ok = true, true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding at %s:%d matching %q", w.file, w.line, w.substr)
		}
	}
}

func TestFalseShareGolden(t *testing.T) {
	runGolden(t, "falseshare", []*Analyzer{FalseShare()})
}

func TestAtomicMixGolden(t *testing.T) {
	runGolden(t, "atomicmix", []*Analyzer{AtomicMix()})
}

func TestFJDisciplineGolden(t *testing.T) {
	runGolden(t, "fjdiscipline", []*Analyzer{FJDiscipline()})
}

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, "determinism", []*Analyzer{Determinism("determinism")})
}

// TestDeterminismScope pins the scoping: under the default scope the same
// violation-riddled package is out of scope and must produce nothing.
func TestDeterminismScope(t *testing.T) {
	pkgs := loadTestdata(t, "determinism")
	active, suppressed := Check(pkgs, []*Analyzer{Determinism(DefaultDeterminismScope...)})
	for _, f := range append(active, suppressed...) {
		t.Errorf("out-of-scope package produced a finding: %s", f)
	}
}

// TestSuppression pins the //lint:allow convention on testdata/src/suppress:
// a well-formed allow (with a reason) moves its finding to the suppressed
// list; a reason-less allow is itself reported and suppresses nothing.
func TestSuppression(t *testing.T) {
	pkgs := loadTestdata(t, "suppress")
	active, suppressed := Check(pkgs, []*Analyzer{FalseShare()})

	if len(suppressed) != 1 {
		t.Fatalf("suppressed = %d findings %v, want exactly 1 (quiet's layout)", len(suppressed), suppressed)
	}
	if s := suppressed[0]; s.Analyzer != "falseshare" || !strings.Contains(s.Message, "of quiet ") {
		t.Errorf("suppressed the wrong finding: %s", s)
	}

	var gotAllow, gotLoud bool
	for _, f := range active {
		switch {
		case f.Analyzer == "allow" && strings.Contains(f.Message, "needs an analyzer name and a reason"):
			gotAllow = true
		case f.Analyzer == "falseshare" && strings.Contains(f.Message, "of loud "):
			gotLoud = true
		default:
			t.Errorf("unexpected active finding: %s", f)
		}
	}
	if !gotAllow {
		t.Error("reason-less lint:allow was not reported")
	}
	if !gotLoud {
		t.Error("finding under a reason-less lint:allow was suppressed; it must stay active")
	}
}
