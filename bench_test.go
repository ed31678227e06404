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
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/harness"
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

// BenchmarkEXP14SampledCells runs the EXP14 cells the benchmark's sim_grid
// workload times — the first cell under each label: every kernel serial and
// under both schedulers at its smallest size — and reports host nanoseconds
// per simulated unit operation.  It is the entry point for profiling the
// simulator on the cells that set sim_grid's ops_per_s:
//
//	go test -run '^$' -bench EXP14SampledCells -cpuprofile cpu.out .
func BenchmarkEXP14SampledCells(b *testing.B) {
	exp, ok := bench.FindExperiment("EXP14")
	if !ok {
		b.Fatal("EXP14 not registered")
	}
	var cells []harness.Cell
	seen := map[string]bool{}
	for _, c := range exp.Cells(bench.Params{}) {
		if !seen[c.Label] {
			seen[c.Label] = true
			cells = append(cells, c)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			ops += c.Run()[0].Work
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/simop")
}

// BenchmarkFJSimFork times the fj sim lowering alone: a 1023-fork Parallel
// tree whose tasks do no work, at p = 1, 2 and 8 under PWS, reported per
// simulated fork (ns/fork, allocs/fork).  It is the entry point for
// profiling what a fork costs the simulator beyond its Node-tree twin:
//
//	go test -run '^$' -bench FJSimFork -cpuprofile cpu.out .
func BenchmarkFJSimFork(b *testing.B) {
	const depth = 10
	const forks = 1<<depth - 1
	tree := func(*fj.Ctx) {}
	for range depth {
		sub := tree
		tree = func(c *fj.Ctx) { c.Parallel(sub, sub) }
	}
	for _, p := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			m := machine.New(machine.Default(p))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fj.RunSim(m, sched.NewPWS(), core.Options{}, 1, "tree", tree)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * forks
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/fork")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/fork")
		})
	}
}

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
