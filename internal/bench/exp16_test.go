package bench

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestEXP16Rows runs the quick grid serially and checks the rows are
// well-formed: one row per (clients, pool) coordinate, every request
// verified ("ok" in Note), throughput measured, and the smallest-clients
// cell of each pool size carrying scale 1.
func TestEXP16Rows(t *testing.T) {
	e, ok := FindExperiment("EXP16")
	if !ok {
		t.Fatal("EXP16 not registered")
	}
	rows := e.Rows(Params{Quick: true, Repeats: 1, Seed: 42}, 1)

	clients, pools, _ := exp16Grid(true)
	if want := len(clients) * len(pools); len(rows) != want {
		t.Fatalf("got %d rows, want %d (quick grid)", len(rows), want)
	}
	for _, r := range rows {
		cl, ok := exp16Note(r)
		if !ok {
			t.Errorf("row Note %q does not parse", r.Note)
			continue
		}
		if !strings.HasSuffix(r.Note, " ok") {
			t.Errorf("cell clients=%d p=%d failed verification: Note %q", cl, r.P, r.Note)
		}
		if !r.Volatile {
			t.Errorf("cell clients=%d p=%d: wall-clock row must be Volatile", cl, r.P)
		}
		if r.Aux1 <= 0 || r.WallNS <= 0 {
			t.Errorf("cell clients=%d p=%d: no throughput measured (req/s %.1f, wall %d)", cl, r.P, r.Aux1, r.WallNS)
		}
		if r.Aux3 < r.Aux2 {
			t.Errorf("cell clients=%d p=%d: p99 %v below p50 %v", cl, r.P, r.Aux3, r.Aux2)
		}
		if cl == clients[0] && r.Ratio != 1 {
			t.Errorf("cell clients=%d p=%d is the baseline and must carry scale 1, got %v", cl, r.P, r.Ratio)
		} else if r.Ratio <= 0 {
			t.Errorf("cell clients=%d p=%d: scale not filled", cl, r.P)
		}
	}
}

// TestEXP16NoteIdentity pins that the Note coordinates survive Normalize —
// the canon path depends on the client count riding in an identity column.
func TestEXP16NoteIdentity(t *testing.T) {
	r := harness.Row{
		Exp: "EXP16", Algo: "sort", N: exp16N, P: 2,
		Sched: "serve", Note: "clients=8 ok",
		WallNS: 123, Aux1: 9e5, Aux2: 1, Aux3: 2, Bound: 4, Ratio: 1.5,
		Volatile: true,
	}
	n := harness.Normalize([]harness.Row{r})[0]
	if n.Note != r.Note {
		t.Fatalf("Normalize changed Note: %q -> %q", r.Note, n.Note)
	}
	if n.WallNS != 0 || n.Aux1 != 0 || n.Aux2 != 0 || n.Aux3 != 0 || n.Bound != 0 || n.Ratio != 0 {
		t.Fatalf("Normalize must zero volatile measurements, got %+v", n)
	}
}
