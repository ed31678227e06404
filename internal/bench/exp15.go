package bench

import (
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/algos/registry"
	"repro/internal/algos/sortx"
	"repro/internal/algos/spms"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/harness"
	"repro/internal/machine"
)

// EXP15 is the sorting critical-path experiment: it runs the two fj sort
// kernels' sim lowerings over a common n-sweep × an adversarial input sweep
// and checks the measured DAG depth (T∞, schedule-independent) against each
// kernel's depth form — c·log n·log log n for spms (the SPMS worst-case
// bound its k-way sample-partition merge targets) and c·log³ n for sortx
// (the Type-2 HBP merge-sort stand-in).  Worst-case bounds call for
// worst-case inputs, so every (kernel, n) cell runs once per input arm:
// uniform random, all-equal, pre-sorted, reverse-sorted, organ-pipe, and
// few-distinct-keys — the shapes that historically break sample-based
// partitions (duplicate floods) and merge paths (pre-ordered runs).
//
// The constant c is fit per kernel as the WORST arm at the smallest size —
// the paper's theorems bound worst-case depth with a single constant, so
// one c must cover every input.  At every (arm, size), measured/(c·form)
// must stay at or below the kernel's declared envelope (depth forms are
// upper bounds, so only the upper side can fail): 1.0 for spms — the
// measured depth genuinely fits its form, no slack — and 1.5 for sortx,
// whose stand-in recursion tracks its cubic form more loosely.  The
// headline comparison — spms's measured depth below sortx's at every
// (arm, size) — is asserted by exp15_test.go and visible in the table.
//
// Row schema: Note = "depth:<arm>", Bound = c·form(n), Ratio =
// CritPath/Bound, Aux1 = c, Aux2 = the envelope, Aux3 = form(n) unscaled.
// Rows carry no wall-clock-derived measurements, so `-canon` output is
// byte-identical across -parallel levels.

// exp15Eps absorbs float roundoff at the fit point, where the ratio is 1 by
// construction and must not trip the exact spms envelope.
const exp15Eps = 1e-9

// exp15Kernels names the compared sort kernels, their depth forms, their
// one-sided envelopes, and their fork-join roots.
var exp15Kernels = []struct {
	Name     string
	Form     func(n int64) float64
	Envelope float64
	Sort     func(*fj.Ctx, fj.I64)
}{
	{"spms", func(n int64) float64 {
		l := math.Log2(float64(n))
		return l * math.Log2(l)
	}, 1.0, spms.FJSort},
	{"sortx", func(n int64) float64 {
		l := math.Log2(float64(n))
		return l * l * l
	}, 1.5, sortx.FJSort},
}

// exp15Arms is the adversarial input sweep.  "rand" is the only seeded arm;
// the rest are deterministic shapes, so their depths carry no seed variance
// across repeats.
var exp15Arms = []string{"rand", "equal", "sorted", "reverse", "organ", "fewkeys"}

// exp15Fill writes the arm's input shape into data.
func exp15Fill(data fj.I64, n int64, arm string, seed uint64) {
	switch arm {
	case "equal": // duplicate flood: every key identical
		for i := int64(0); i < n; i++ {
			data.Store(i, 42)
		}
	case "sorted": // already ascending
		for i := int64(0); i < n; i++ {
			data.Store(i, i)
		}
	case "reverse": // strictly descending
		for i := int64(0); i < n; i++ {
			data.Store(i, n-i)
		}
	case "organ": // ascending then descending (organ pipe)
		for i := int64(0); i < n; i++ {
			v := i
			if i >= n/2 {
				v = n - i
			}
			data.Store(i, v)
		}
	case "fewkeys": // seven distinct keys, scattered
		for i := int64(0); i < n; i++ {
			data.Store(i, (i*2654435761)%7)
		}
	default: // uniform random
		g := registry.LCG(seed + 12)
		for i := int64(0); i < n; i++ {
			data.Store(i, g.Next()%(1<<30))
		}
	}
}

// exp15Sizes is the common n-sweep (both kernels accept any n; these sizes
// keep the larger sim runs under a second).
func exp15Sizes(quick bool) []int64 {
	if quick {
		return []int64{512, 2048}
	}
	return []int64{512, 1024, 2048, 4096, 8192}
}

// exp15Measure runs one (kernel, arm, n) sim cell — the arm's input shape,
// the kernel's fj sim lowering — and flattens the result into the row
// schema.  The cells bypass the registry catalog because the catalog builds
// only the seeded-random input; the adversarial shapes are this
// experiment's whole point.
func exp15Measure(ki int, arm string, n int64, spec Spec) harness.Row {
	k := exp15Kernels[ki]
	a := Algo{Name: k.Name, Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
		data := fj.NewSimEnv(m).I64(n)
		exp15Fill(data, n, arm, seed)
		return fj.SimNode(m, n, k.Name, func(c *fj.Ctx) { k.Sort(c, data) })
	}}
	r := rowFrom("EXP15", k.Name, n, spec, Run(a, n, spec), 0)
	r.Note = "depth:" + arm
	return r
}

func exp15Cells(p Params) []harness.Cell {
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for ki := range exp15Kernels {
			for _, arm := range exp15Arms {
				for _, n := range exp15Sizes(p.Quick) {
					spec := stamp(DefaultSpec(4), rep, seed)
					cells = append(cells, harness.Cell{
						Exp: "EXP15", Label: exp15Kernels[ki].Name,
						Run: func() []harness.Row {
							return []harness.Row{exp15Measure(ki, arm, n, spec)}
						},
					})
				}
			}
		}
	})
	return cells
}

// exp15Arm extracts the input-arm tag from a depth row's note.
func exp15Arm(r harness.Row) string {
	return strings.TrimPrefix(r.Note, "depth:")
}

// exp15Finish fits each kernel's worst-case constant — the maximum over
// arms of measured/form at the smallest size — and fills Bound = c·form(n),
// Ratio = CritPath/Bound, Aux1 = c, Aux2 = envelope, Aux3 = form(n).
func exp15Finish(rows []harness.Row) []harness.Row {
	type key struct {
		algo string
		rep  int
	}
	groups := map[key][]int{}
	for i, r := range rows {
		k := key{r.Algo, r.Repeat}
		groups[k] = append(groups[k], i)
	}
	//lint:allow determinism groups partition the row indices, so each row is written by exactly one iteration and order cannot matter
	for _, idx := range groups {
		sort.Slice(idx, func(a, b int) bool { return rows[idx[a]].N < rows[idx[b]].N })
		var form func(int64) float64
		var envelope float64
		for _, k := range exp15Kernels {
			if k.Name == rows[idx[0]].Algo {
				form, envelope = k.Form, k.Envelope
			}
		}
		if form == nil {
			continue
		}
		n0 := rows[idx[0]].N
		var c float64
		for _, i := range idx {
			if r := rows[i]; r.N == n0 {
				if v := float64(r.CritPath) / form(n0); v > c {
					c = v
				}
			}
		}
		for _, i := range idx {
			r := &rows[i]
			r.Bound = c * form(r.N)
			r.Ratio = float64(r.CritPath) / r.Bound
			r.Aux1 = c
			r.Aux2 = envelope
			r.Aux3 = form(r.N)
		}
	}
	return rows
}

func exp15Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP15 — sort critical path over adversarial inputs: spms (c·lg n·lglg n) vs sortx (c·lg³ n)")
	t := harness.NewTable(w, "kernel", "arm", "n", "T∞", "c·form", "ratio", "envelope", "status")
	for _, r := range rows {
		status := "ok"
		if r.Ratio > r.Aux2*(1+exp15Eps) {
			status = "OUT OF ENVELOPE"
		}
		t.Line(r.Algo, exp15Arm(r), harness.F(r.N), harness.F(r.CritPath), harness.F(int64(r.Bound)),
			harness.F(r.Ratio), harness.F(r.Aux2), status)
	}
	t.Flush()
}
