// Package repro's root benchmarks regenerate every evaluation artifact of
// the paper: one benchmark per experiment (see EXPERIMENTS.md for the
// experiment index; EXP12 is retired), plus micro-benchmarks for the substrates.  Run with
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark prints its paper-style table once (on the first
// iteration) and then reports the time of a representative run.
package repro

import (
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

var printOnce sync.Map

// runExperiment prints the experiment table once and times quick re-runs.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := bench.FindExperiment(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	// Print the table once per benchmark, with the quick sweeps so a full
	// `go test -bench=.` stays bounded; `go run ./cmd/hbpbench` (no flags)
	// produces the full sweeps.
	if _, done := printOnce.LoadOrStore(id, true); !done {
		exp.Run(os.Stdout, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Run(io.Discard, true)
	}
}

func BenchmarkEXP01Table1(b *testing.B)         { runExperiment(b, "EXP01") }
func BenchmarkEXP02BPCacheExcess(b *testing.B)  { runExperiment(b, "EXP02") }
func BenchmarkEXP03HBPCacheExcess(b *testing.B) { runExperiment(b, "EXP03") }
func BenchmarkEXP04BlockExcess(b *testing.B)    { runExperiment(b, "EXP04") }
func BenchmarkEXP05StealBounds(b *testing.B)    { runExperiment(b, "EXP05") }
func BenchmarkEXP06PWSvsRWS(b *testing.B)       { runExperiment(b, "EXP06") }
func BenchmarkEXP07Gapping(b *testing.B)        { runExperiment(b, "EXP07") }
func BenchmarkEXP08Padding(b *testing.B)        { runExperiment(b, "EXP08") }
func BenchmarkEXP09Runtime(b *testing.B)        { runExperiment(b, "EXP09") }
func BenchmarkEXP10ListRank(b *testing.B)       { runExperiment(b, "EXP10") }
func BenchmarkEXP11CC(b *testing.B)             { runExperiment(b, "EXP11") }
func BenchmarkEXP13LayoutSweep(b *testing.B)    { runExperiment(b, "EXP13") }
func BenchmarkEXP14ModelCheck(b *testing.B)     { runExperiment(b, "EXP14") }
func BenchmarkEXP15SortDepth(b *testing.B)      { runExperiment(b, "EXP15") }
func BenchmarkEXP16Service(b *testing.B)        { runExperiment(b, "EXP16") }

// --- Substrate micro-benchmarks --------------------------------------------

func BenchmarkCacheAccessHit(b *testing.B) {
	s := cache.NewSet(64)
	s.Insert(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Touch(1)
	}
}

func BenchmarkCacheAccessMissEvict(b *testing.B) {
	s := cache.NewSet(64)
	b.ResetTimer()
	// A miss and an eviction every time at capacity 64, over a bounded key
	// range: the block index is dense, it would otherwise grow with b.N.
	for i := 0; i < b.N; i++ {
		s.Insert(int64(i) & (1<<16 - 1))
	}
}

func BenchmarkProcReadHit(b *testing.B) {
	m := machine.New(machine.Default(1))
	a := mem.NewArray(m.Space, 8)
	p := m.Procs[0]
	p.Write(a.Addr(0), 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Read(a.Addr(0))
	}
}

func BenchmarkProcReadStream(b *testing.B) {
	m := machine.New(machine.Default(1))
	n := int64(1 << 16)
	a := mem.NewArray(m.Space, n)
	p := m.Procs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Read(a.Addr(int64(i) & (n - 1)))
	}
}

// BenchmarkEngineStepRate measures simulated M-Sum throughput: simulated
// accesses per wall-second across engine + scheduler + cache model.
func BenchmarkEngineStepRate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.Default(8))
		n := int64(4096)
		a := mem.NewArray(m.Space, n)
		a.Fill(1)
		out := m.Space.Alloc(1)
		eng := core.NewEngine(m, sched.NewPWS(), core.Options{})
		eng.Run(msumNode(a, out))
	}
}

// msumNode builds a minimal M-Sum inline (the benchmark measures the engine,
// not the scan package).
func msumNode(a mem.Array, out mem.Addr) *core.Node {
	var build func(lo, hi int64, out mem.Addr) *core.Node
	build = func(lo, hi int64, out mem.Addr) *core.Node {
		if hi-lo == 1 {
			return core.Leaf(1, func(c *core.Ctx) { c.W(out, c.R(a.Addr(lo))) })
		}
		mid := lo + (hi-lo)/2
		return &core.Node{
			Size:   hi - lo,
			Locals: 2,
			Fork: func(c *core.Ctx) (*core.Node, *core.Node) {
				return build(lo, mid, c.Local(0)), build(mid, hi, c.Local(1))
			},
			Join: func(c *core.Ctx) {
				c.W(out, c.R(c.Local(0))+c.R(c.Local(1)))
			},
		}
	}
	return build(0, a.Len(), out)
}
