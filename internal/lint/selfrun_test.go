package lint

import (
	"sync"
	"testing"
)

// minSuppressed is the number of //lint:allow-suppressed findings the tree
// carries.  The self-run requires at least this many, so the annotations
// stay load-bearing: deleting an allow moves its finding to the active list
// (failing the clean check), while deleting the code a still-present allow
// annotates drops the count below the floor.  Lower it only together with
// the code an allow annotated.
const minSuppressed = 6

// modulePkgs is the whole module's analysis units, loaded once for the
// self-run and the Load tests: the CI invocation, hbplint ./... from the
// module root.
var modulePkgs = sync.OnceValues(func() ([]*Package, error) { return Load("../..", "./...") })

func loadModule(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := modulePkgs()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return pkgs
}

// TestRepoSelfRunClean is the gate the CI hbplint step mirrors: the whole
// module, test files included, must produce zero active findings under the
// default analyzer suite.
func TestRepoSelfRunClean(t *testing.T) {
	active, suppressed := Check(loadModule(t), Analyzers())
	for _, f := range active {
		t.Errorf("active finding: %s", f)
	}
	if len(suppressed) < minSuppressed {
		t.Errorf("suppressed findings = %d, want >= %d: a lint:allow in the tree no longer suppresses anything — delete it or lower the floor",
			len(suppressed), minSuppressed)
	}
}
