package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// sampleRows covers the encoder edge cases: CSV quoting (commas, quotes,
// newlines, unicode), non-finite floats, negative and large values.
func sampleRows() []Row {
	return []Row{
		{
			Exp: "EXP01", Algo: "Scan(M-Sum)", N: 4096, P: 8, M: 1024, B: 16,
			Sched: "pws", Seed: 42, Makespan: 123456, Work: 99, CritPath: 17,
			CacheMisses: 1024, BlockMisses: 3, UpgradeMisses: 1, Bound: 512.5,
			Ratio: 0.25, WallNS: 1500, Note: "measured",
		},
		{
			Exp: "EXP06", Algo: `BI-RM "gap", v2`, N: 128, Sched: "rws",
			Padded: true, Repeat: 2, Seed: 1 << 62,
			Ratio: math.NaN(), Aux1: math.Inf(1), Aux2: math.Inf(-1),
			Note: "comma, quote\" and\nnewline — ünïcode",
		},
		{
			Exp: "EXP13", Algo: "scan", P: 4, Sched: "rt",
			Steals: -1, WallNS: 987654321, Volatile: true, Aux1: 3.9999999999,
		},
	}
}

// rowsEqual compares rows treating NaN as equal to NaN.
func rowsEqual(t *testing.T, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	cols := columns()
	for i := range want {
		for _, c := range cols {
			g, w := c.get(&got[i]), c.get(&want[i])
			if c.kind == kFloat {
				gf, wf := g.(float64), w.(float64)
				if math.IsNaN(gf) && math.IsNaN(wf) {
					continue
				}
				if gf != wf {
					t.Errorf("row %d column %s: got %v, want %v", i, c.name, gf, wf)
				}
				continue
			}
			if g != w {
				t.Errorf("row %d column %s: got %v, want %v", i, c.name, g, w)
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	// JSON has no Inf literal: WriteJSONL emits null, ParseJSONL reads NaN.
	nanify := func(rows []Row) []Row {
		out := make([]Row, len(rows))
		copy(out, rows)
		cols := columns()
		for i := range out {
			for _, c := range cols {
				if c.kind == kFloat && !isFinite(c.get(&out[i]).(float64)) {
					c.set(&out[i], math.NaN())
				}
			}
		}
		return out
	}
	cases := []struct {
		name  string
		write func(*bytes.Buffer, []Row) error
		parse func(*bytes.Buffer) ([]Row, error)
		canon func([]Row) []Row
	}{
		{"csv", func(b *bytes.Buffer, r []Row) error { return WriteCSV(b, r) },
			func(b *bytes.Buffer) ([]Row, error) { return ParseCSV(b) },
			func(rows []Row) []Row { return rows }},
		{"jsonl", func(b *bytes.Buffer, r []Row) error { return WriteJSONL(b, r) },
			func(b *bytes.Buffer) ([]Row, error) { return ParseJSONL(b) },
			nanify},
	}
	inputs := []struct {
		name string
		rows []Row
	}{
		{"edge-cases", sampleRows()},
		{"single-zero-row", []Row{{}}},
		{"empty-grid", nil},
	}
	for _, c := range cases {
		for _, in := range inputs {
			t.Run(c.name+"/"+in.name, func(t *testing.T) {
				var buf bytes.Buffer
				if err := c.write(&buf, in.rows); err != nil {
					t.Fatalf("write: %v", err)
				}
				got, err := c.parse(&buf)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				rowsEqual(t, got, c.canon(in.rows))
			})
		}
	}
}

func TestCSVEmptyGridStillHasHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if line != strings.Join(Header(), ",") {
		t.Errorf("empty-grid CSV = %q, want just the header", line)
	}
}

func TestParseCSVRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"wrong-header", "bogus,header\n1,2\n"},
		{"short-header", "exp,algo\n"},
		{"bad-int", strings.Join(Header(), ",") + "\n" +
			"EXP01,x,notanint" + strings.Repeat(",0", len(Header())-3) + "\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseCSV(strings.NewReader(c.in)); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestParseJSONLRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"not-json", "{\n"},
		{"unknown-key", `{"exp":"EXP01","bogus":1}` + "\n"},
		{"wrong-type", `{"n":"forty"}` + "\n"},
		{"null-int", `{"makespan":null}` + "\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseJSONL(strings.NewReader(c.in)); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestParseJSONLSkipsBlankLines(t *testing.T) {
	rows, err := ParseJSONL(strings.NewReader("\n\n" + `{"exp":"EXP01"}` + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Exp != "EXP01" {
		t.Errorf("got %+v", rows)
	}
}

func TestNonFiniteFloatsAreNullInJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Row{{Ratio: math.NaN(), Aux1: math.Inf(1)}}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"ratio":null`) || !strings.Contains(s, `"aux1":null`) {
		t.Errorf("non-finite floats not encoded as null: %s", s)
	}
	if strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Errorf("raw NaN/Inf leaked into JSON: %s", s)
	}
}

func TestHeaderMatchesColumnCount(t *testing.T) {
	if len(Header()) != len(columns()) {
		t.Fatal("Header/columns mismatch")
	}
	seen := map[string]bool{}
	for _, n := range Header() {
		if seen[n] {
			t.Errorf("duplicate column %q", n)
		}
		seen[n] = true
	}
}
