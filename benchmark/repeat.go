package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// contract is the part of BENCHMARK.json the program reads back: the
// declared names, and each end-to-end metric's direction and bound.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(path string) (contract, error) {
	var c contract
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// checkRepeat runs the untraced set passes times back to back and prints,
// per workload and metric, the minimum, median and maximum as a Markdown
// table (REPEAT.md is this output on the seed commit).  It reports false if
// any metric's worst pass is worse than its best by more than the bound
// BENCHMARK.json declares — two sets of runs of the same code must agree
// within the benchmark's own bounds.
func checkRepeat(w io.Writer, seed uint64, sc scale, passes int) (bool, error) {
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("run from the repo root: %w", err)
	}
	values := map[string][]float64{} // "workload metric" -> one value per pass
	for pass := 0; pass < passes; pass++ {
		for _, wl := range workloads {
			res, err := wl.run(seed, sc, nil)
			if err != nil {
				return false, fmt.Errorf("%s: %w", wl.name, err)
			}
			if res.Failed > 0 {
				return false, fmt.Errorf("%s: %d of %d operations failed", wl.name, res.Failed, res.Attempted)
			}
			for _, m := range res.Metrics {
				key := wl.name + " " + m.Name
				values[key] = append(values[key], m.Value)
			}
		}
		fmt.Fprintf(w, "# pass %d of %d done\n", pass+1, passes)
	}
	fmt.Fprintf(w, "\n| workload | metric | unit | min | median | max | worst vs best | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	ok := true
	for _, wl := range workloads {
		for _, m := range c.EndToEnd {
			v := slices.Clone(values[wl.name+" "+m.Name])
			if len(v) != passes {
				return false, fmt.Errorf("%s did not report %s on every pass", wl.name, m.Name)
			}
			slices.Sort(v)
			lo, hi := v[0], v[len(v)-1]
			gap := (hi - lo) / lo // lower is better: the worst pass is the highest
			if m.Better == "higher" {
				gap = (hi - lo) / hi
			}
			verdict := "ok"
			if gap > m.Bound {
				verdict, ok = "OVER", false
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.5g | %.5g | %.5g | %.1f%% | %.0f%% | %s |\n",
				wl.name, m.Name, m.Unit, lo, v[(len(v)-1)/2], hi, 100*gap, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
