package bench_test

// Golden determinism tests: every experiment's quick-mode row set must be
// byte-identical whether the grid runs serially or on 8 goroutines.
// Rows are normalized first (wall-clock fields zeroed everywhere, all
// measurements zeroed on Volatile rows — EXP13's and EXP16's wall-clock
// cells), which is exactly what `hbpbench -canon` emits for cross-PR diffing.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/harness"
)

type rowsKey struct {
	id    string
	quick bool
}

// rowsMemo computes each experiment's seed-0 rows at -parallel 1 at most
// once per test binary, quick and full separately.
var rowsMemo = func() map[rowsKey]func() []harness.Row {
	m := map[rowsKey]func() []harness.Row{}
	for _, e := range bench.Experiments() {
		for _, quick := range []bool{true, false} {
			m[rowsKey{e.ID, quick}] = sync.OnceValue(func() []harness.Row {
				return e.Rows(bench.Params{Quick: quick}, 1)
			})
		}
	}
	return m
}()

// serialRows returns experiment id's seed-0 rows at -parallel 1, computed
// once and shared by every test that asserts on them (golden, digest,
// envelopes): callers must not modify them.
func serialRows(t *testing.T, id string, quick bool) []harness.Row {
	t.Helper()
	rows, ok := rowsMemo[rowsKey{id, quick}]
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	return rows()
}

// goldenJSONL renders normalized rows to canonical bytes.
func goldenJSONL(t *testing.T, rows []harness.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := harness.WriteJSONL(&buf, harness.Normalize(rows)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenRowsIdenticalAcrossParallelism(t *testing.T) {
	params := bench.Params{Quick: true}
	for _, e := range bench.Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rows1 := serialRows(t, e.ID, true)
			rows8 := e.Rows(params, 8)
			if len(rows1) == 0 {
				t.Fatalf("%s: no rows", e.ID)
			}
			// Row identity every emitter keys on: each experiment tags its
			// own rows, every row names an algorithm, and a single-repeat
			// run stays at repeat 0 / seed 0.
			for i, r := range rows8 {
				if r.Exp != e.ID {
					t.Errorf("row %d tagged %q", i, r.Exp)
				}
				if r.Algo == "" {
					t.Errorf("row %d has no algorithm", i)
				}
				if r.Repeat != 0 || r.Seed != 0 {
					t.Errorf("row %d has repeat %d seed %d, want 0/0", i, r.Repeat, r.Seed)
				}
			}
			serial := goldenJSONL(t, rows1)
			parallel := goldenJSONL(t, rows8)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("normalized rows differ between -parallel 1 and -parallel 8\nserial:\n%s\nparallel:\n%s",
					firstDiff(serial, parallel), firstDiff(parallel, serial))
			}
		})
	}
}

// firstDiff returns the first line of a that differs from b, for readable
// failure output.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range al {
		if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: %s", i+1, al[i])
		}
	}
	return "(prefix equal; lengths differ)"
}
