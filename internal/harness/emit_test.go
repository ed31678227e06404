package harness

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"slices"
	"strconv"
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

// values returns each row's column values in schema order, non-finite
// floats replaced by NaN when nanify is set.
func values(rows []Row, nanify bool) [][]any {
	out := make([][]any, len(rows))
	for i := range rows {
		for _, c := range columns() {
			v := c.get(&rows[i])
			if f, ok := v.(float64); ok && nanify && !isFinite(f) {
				v = math.NaN()
			}
			out[i] = append(out[i], v)
		}
	}
	return out
}

// scalar reads one emitted field back with strconv, by its column's kind.
func scalar(t *testing.T, k kind, s string) any {
	t.Helper()
	var v any
	var err error
	switch k {
	case kString:
		v = s
	case kInt:
		v, err = strconv.ParseInt(s, 10, 64)
	case kUint:
		v, err = strconv.ParseUint(s, 10, 64)
	case kBool:
		v, err = strconv.ParseBool(s)
	default:
		v, err = strconv.ParseFloat(s, 64)
	}
	if err != nil {
		t.Fatalf("field %q: %v", s, err)
	}
	return v
}

// readCSV reads WriteCSV's output with encoding/csv, the oracle: the first
// record must be Header(), and every field must read back by its column's
// kind.
func readCSV(t *testing.T, b []byte) [][]any {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		t.Fatalf("encoding/csv: %v", err)
	}
	if len(recs) == 0 || !slices.Equal(recs[0], Header()) {
		t.Fatalf("CSV header %q, want %q", recs, Header())
	}
	var out [][]any
	for _, rec := range recs[1:] {
		var vals []any
		for j, c := range columns() {
			vals = append(vals, scalar(t, c.kind, rec[j]))
		}
		out = append(out, vals)
	}
	return out
}

// readJSONL reads WriteJSONL's output with encoding/json, the oracle: each
// line is one object whose keys are Header() in order, and null reads as a
// NaN float.
func readJSONL(t *testing.T, b []byte) [][]any {
	t.Helper()
	var out [][]any
	for line := range bytes.Lines(b) {
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
			t.Fatalf("line %q does not open an object: %v", line, err)
		}
		var vals []any
		for _, c := range columns() {
			if key, err := dec.Token(); err != nil || key != c.name {
				t.Fatalf("key %v (%v), want %q", key, err, c.name)
			}
			var raw any
			if err := dec.Decode(&raw); err != nil {
				t.Fatalf("column %s: %v", c.name, err)
			}
			switch x := raw.(type) {
			case json.Number:
				raw = scalar(t, c.kind, x.String())
			case nil:
				if c.kind != kFloat {
					t.Fatalf("column %s is null", c.name)
				}
				raw = math.NaN()
			}
			vals = append(vals, raw)
		}
		if tok, err := dec.Token(); err != nil || tok != json.Delim('}') || dec.More() {
			t.Fatalf("line %q does not close after the last column: %v", line, err)
		}
		out = append(out, vals)
	}
	return out
}

// valuesEqual compares row values treating NaN as equal to NaN.
func valuesEqual(t *testing.T, got, want [][]any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j, c := range columns() {
			g, w := got[i][j], want[i][j]
			if gf, ok := g.(float64); ok && math.IsNaN(gf) {
				if wf, ok := w.(float64); ok && math.IsNaN(wf) {
					continue
				}
			}
			if g != w {
				t.Errorf("row %d column %s: got %v (%T), want %v (%T)", i, c.name, g, g, w, w)
			}
		}
	}
}

// TestRoundTrip reads each writer's output back with the standard library
// and checks every value: CSV carries non-finite floats exactly, JSON lines
// carry them as null.
func TestRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		write func(*bytes.Buffer, []Row) error
		read  func(*testing.T, []byte) [][]any
		nan   bool
	}{
		{"csv", func(b *bytes.Buffer, r []Row) error { return WriteCSV(b, r) }, readCSV, false},
		{"jsonl", func(b *bytes.Buffer, r []Row) error { return WriteJSONL(b, r) }, readJSONL, true},
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
				valuesEqual(t, c.read(t, buf.Bytes()), values(in.rows, c.nan))
			})
		}
	}
}

func TestCSVEmptyGridStillHasHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !slices.Equal(recs[0], Header()) {
		t.Errorf("empty-grid CSV = %q, want just the header", recs)
	}
}

func TestNonFiniteFloatsAreNullInJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Row{{Ratio: math.NaN(), Aux1: math.Inf(1)}}); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.Bytes())
	}
	for _, k := range []string{"ratio", "aux1"} {
		if v, ok := obj[k]; !ok || v != nil {
			t.Errorf("%s = %v (present %v), want null", k, v, ok)
		}
	}
	if s := buf.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
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
