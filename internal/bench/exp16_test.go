package bench

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestEXP16Rows runs the quick grid serially and checks the rows are
// well-formed: one rpc and one stream row per (clients, pool) coordinate,
// every request verified ("ok" in Note), throughput measured, and the
// smallest-clients rpc cell of each pool size carrying scale 1.
func TestEXP16Rows(t *testing.T) {
	e, ok := FindExperiment("EXP16")
	if !ok {
		t.Fatal("EXP16 not registered")
	}
	rows := e.Rows(Params{Quick: true, Repeats: 1, Seed: 42}, 1)

	clients, pools, _ := exp16Grid(true)
	if want := len(clients) * len(pools) * 2; len(rows) != want {
		t.Fatalf("got %d rows, want %d (quick grid)", len(rows), want)
	}
	modes := map[string]int{}
	for _, r := range rows {
		cl, mode, ok := exp16Note(r)
		if !ok {
			t.Errorf("row Note %q does not parse", r.Note)
			continue
		}
		modes[mode]++
		if !strings.HasSuffix(r.Note, " ok") {
			t.Errorf("cell clients=%d p=%d %s failed verification: Note %q", cl, r.P, mode, r.Note)
		}
		if !r.Volatile {
			t.Errorf("cell clients=%d p=%d %s: wall-clock row must be Volatile", cl, r.P, mode)
		}
		if r.Aux1 <= 0 || r.WallNS <= 0 {
			t.Errorf("cell clients=%d p=%d %s: no throughput measured (req/s %.1f, wall %d)", cl, r.P, mode, r.Aux1, r.WallNS)
		}
		if r.Aux3 < r.Aux2 {
			t.Errorf("cell clients=%d p=%d %s: p99 %v below p50 %v", cl, r.P, mode, r.Aux3, r.Aux2)
		}
		if baseline := cl == clients[0] && mode == "rpc"; baseline && r.Ratio != 1 {
			t.Errorf("cell clients=%d p=%d rpc is the baseline and must carry scale 1, got %v", cl, r.P, r.Ratio)
		} else if r.Ratio <= 0 {
			t.Errorf("cell clients=%d p=%d %s: scale not filled", cl, r.P, mode)
		}
	}
	if modes["rpc"] != modes["stream"] || modes["rpc"] == 0 {
		t.Fatalf("grid modes unbalanced: %v", modes)
	}
}

// TestEXP16NoteIdentity pins that the Note coordinates survive Normalize —
// the canon path depends on clients/mode riding in an identity column.
func TestEXP16NoteIdentity(t *testing.T) {
	r := harness.Row{
		Exp: "EXP16", Algo: "sort", N: exp16N, P: 2,
		Sched: "serve", Note: "clients=8 mode=stream ok",
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
