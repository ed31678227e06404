package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkEmitted asserts that res carries exactly the declared metrics, once
// each, finite, well named and in the declared unit.
func checkEmitted(t *testing.T, res result, declared map[string]string) {
	t.Helper()
	if res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
	}
	seen := map[string]int{}
	for _, m := range res.Metrics {
		seen[m.Name]++
		unit, ok := declared[m.Name]
		switch {
		case !ok:
			t.Errorf("%s emits %s, which BENCHMARK.json does not declare", res.Workload, m.Name)
		case unit != m.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", res.Workload, m.Name, m.Unit, unit)
		}
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s: metric name %q is malformed", res.Workload, m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v is not finite", res.Workload, m.Name, m.Value)
		}
	}
	for name := range declared {
		if seen[name] != 1 {
			t.Errorf("%s emits %s %d times, want once", res.Workload, name, seen[name])
		}
	}
}

// TestSmoke runs all four workloads and the traced pass at smoke scale and
// holds their output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(c.Workloads), len(workloads))
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(perLayer) > 128 || len(perLayer) != len(c.PerLayer) {
		t.Errorf("%d per-layer metrics (%d distinct), want distinct and at most 128", len(c.PerLayer), len(perLayer))
	}

	sc := scale{seconds: 0.3, short: true, setups: 1}
	const seed = 7
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, c.Workloads[i].Name, w.name)
		}
		res, err := w.run(seed, sc, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkEmitted(t, res, endToEnd)
	}

	tr := newTracer()
	res, err := runLayers(seed, sc, tr)
	if err != nil {
		t.Fatalf("traced pass: %v", err)
	}
	checkEmitted(t, res, perLayer)

	path := filepath.Join(t.TempDir(), "out", "trace.jsonl")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	layers := map[string]bool{}
	ids := map[int64]bool{}
	var spans []span
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if s.End < s.Start || s.Span == 0 || ids[s.Span] {
			t.Errorf("bad span %+v", s)
		}
		ids[s.Span] = true
		layers[s.Layer] = true
		spans = append(spans, s)
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d names parent %d, which was never recorded", s.Span, s.Parent)
		}
	}
	for _, l := range []string{"serve", "registry", "rt", "algos", "core", "model", "bench", "load"} {
		if !layers[l] {
			t.Errorf("no span recorded at layer %s", l)
		}
	}
}

func TestSlug(t *testing.T) {
	for label, want := range map[string]string{
		"Scan(M-Sum)/serial": "scan_m_sum",
		"BI-RM (gap RM)/pws": "bi_rm_gap_rm",
		"Depth-n-MM/rws":     "depth_n_mm",
		"spms/serial":        "spms",
	} {
		if got := slug(label); got != want {
			t.Errorf("slug(%q) = %q, want %q", label, got, want)
		}
	}
}

// TestStockBaselines holds every stock baseline to the invocable's own
// verifier, so stock_ratio never compares against a wrong answer.
func TestStockBaselines(t *testing.T) {
	for _, s := range kernelSizes {
		k := mustInvocable(s.name)
		in, err := k.Gen(s.short, 3)
		if err != nil {
			t.Fatal(err)
		}
		st := stockFor(s.name, in)
		st.run()
		st.run() // buffers are reused between runs
		if !k.Verify(in, st.words()) {
			t.Errorf("stock %s fails the kernel's verifier", s.name)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []int64{5, 1, 4, 2, 3}
	for q, want := range map[float64]int64{0: 1, 0.5: 3, 0.9: 5, 1: 5} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %d, want %d", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}
