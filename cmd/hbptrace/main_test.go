package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/bench"
)

// TestTraceMatchesEXP01 runs `hbptrace -trace` on FFT at n = 1024, p = 4 —
// EXP01's traced cell — and checks that the dump reports the values the
// cell's row carries: the largest f(r) excess (Aux1), the largest L(r)
// sharing (Aux2) and the balance ratio (Aux3).
func TestTraceMatchesEXP01(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-algo", "FFT", "-n", "1024", "-p", "4", "-trace"}, &buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	largest := func(re string) float64 {
		var v float64
		for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(dump, -1) {
			x, _ := strconv.ParseFloat(m[1], 64)
			v = max(v, x)
		}
		return v
	}
	got := [3]float64{
		largest(`excess=(\d+)`),
		largest(`shared=(\d+)`),
		largest(`balance ratio [^:]*: ([\d.]+)`),
	}

	e, _ := bench.FindExperiment("EXP01")
	var row *[3]float64
	for _, c := range e.Cells(bench.Params{Quick: true}) {
		if c.Label == "FFT/traced" {
			r := c.Run()[0]
			row = &[3]float64{r.Aux1, r.Aux2, r.Aux3}
		}
	}
	if row == nil {
		t.Fatal("EXP01 has no traced FFT cell")
	}
	if r := *row; r[0] != got[0] || r[1] != got[1] || fmt.Sprintf("%.2f", r[2]) != fmt.Sprintf("%.2f", got[2]) {
		t.Errorf("hbptrace reports f/L/balance %v, EXP01's traced row carries %v", got, r)
	}
	if got[2] == 0 {
		t.Errorf("no balance ratio in the dump:\n%s", dump)
	}
}
