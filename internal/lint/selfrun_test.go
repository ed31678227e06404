package lint

import "testing"

// minSuppressed is the number of //lint:allow-suppressed findings the tree
// carries.  The self-run requires at least this many, so the annotations
// stay load-bearing: deleting an allow moves its finding to the active list
// (failing the clean check), while deleting the code a still-present allow
// annotates drops the count below the floor.  Lower it only together with
// the code an allow annotated.
const minSuppressed = 6

// TestRepoSelfRunClean is the gate the CI hbplint step mirrors: the whole
// module, test files included, must produce zero active findings under the
// default analyzer suite.
func TestRepoSelfRunClean(t *testing.T) {
	l := testLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadModule returned no packages")
	}
	active, suppressed := Check(pkgs, Analyzers())
	for _, f := range active {
		t.Errorf("active finding: %s", f)
	}
	if len(suppressed) < minSuppressed {
		t.Errorf("suppressed findings = %d, want >= %d: a lint:allow in the tree no longer suppresses anything — delete it or lower the floor",
			len(suppressed), minSuppressed)
	}
}
