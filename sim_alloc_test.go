package repro

// Allocation pins for the simulator's hot path, the counterpart of
// alloc_regression_test.go for the sim side: a simulated access costs index
// operations and no heap allocation, and a simulated task costs the engine
// none — what is left per task is the algorithm building its core.Node and
// closures, and a MapRange loop builds neither per index.  Simulated memory
// is materialised in 32 KiB pages on first store, so a small cell allocates
// well under a megabyte; a byte budget on one cell pins that.
// testing.AllocsPerRun and runtime.MemStats make a change that brings
// per-access, per-task or per-region heap traffic back fail here instead of
// showing up as a slower experiment grid.

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

func TestSimAccessAllocatesNothing(t *testing.T) {
	m := machine.New(machine.Default(2))
	n := int64(1 << 14) // 16 × the cache: a sweep misses and evicts on every block
	a := mem.NewArray(m.Space, n)
	p0, p1 := m.Procs[0], m.Procs[1]
	for i := int64(0); i < n; i++ {
		p0.Write(a.Addr(i), i) // materialize memory and every index page
	}
	shared := m.Space.Alloc(1)
	i := int64(0)
	d := cache.NewDirectory(8)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"read hit", func() { p0.Read(a.Addr(n - 1)) }},
		{"write hit", func() { p0.Write(a.Addr(n-1), 7) }},
		{"streaming miss + eviction", func() {
			for k := 0; k < 64; k++ {
				i = (i + int64(m.Cfg.B)) & (n - 1)
				p0.Read(a.Addr(i))
			}
		}},
		{"write invalidating a sharer", func() { p1.Read(shared); p0.Write(shared, 1) }},
		{"InvalidateOthers with victims", func() { d.AddSharer(3, 1); d.AddSharer(3, 5); d.InvalidateOthers(3, 0) }},
		{"InvalidateOthers without", func() { d.InvalidateOthers(3, 0) }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != 0 {
			t.Errorf("%s: %v allocs per run, want 0", tc.name, got)
		}
	}
	if p0.Stats.ColdMisses < 64*100 || p0.Stats.InvalsSent < 100 {
		t.Errorf("the loops missed their paths: %+v", p0.Stats)
	}
}

// TestEngineRunAllocBudget pins BenchmarkEngineStepRate's shape — M-Sum,
// n = 4096, p = 8, PWS: 8191 tasks — at 32 000 allocations per run.  It was
// 57 879 when every task cost a record, two or three escaping contexts and a
// stack frame; ~25 000 remain, three per task: its Node and its closures.
func TestEngineRunAllocBudget(t *testing.T) {
	got := testing.AllocsPerRun(3, func() {
		m := machine.New(machine.Default(8))
		a := mem.NewArray(m.Space, 4096)
		a.Fill(1)
		out := m.Space.Alloc(1)
		core.NewEngine(m, sched.NewPWS(), core.Options{}).Run(msumNode(a, out))
		if m.Space.Load(out) != 4096 {
			t.Fatalf("M-Sum = %d, want 4096", m.Space.Load(out))
		}
	})
	if got > 32000 {
		t.Errorf("%v allocations per engine run, want <= 32000", got)
	}
}

// TestSimCellBytesBudget pins the bytes one small simulated cell allocates:
// Depth-n-MM at n = 16 on the default machine at p = 2 (B = 16), under 1 MiB.  It allocated ~2.9 MiB when memory came in 2 MiB segments
// and MapRange built a Node and a closure per index; with 32 KiB lazy pages
// and engine-split ranges it is ~0.7 MiB.
func TestSimCellBytesBudget(t *testing.T) {
	a, ok := bench.FindAlgo("Depth-n-MM")
	if !ok {
		t.Fatal("Depth-n-MM not in the catalog")
	}
	spec := bench.DefaultSpec(2)
	bench.Run(a, 16, spec) // warm-up: package-level state, code paths
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bench.Run(a, 16, spec)
	runtime.ReadMemStats(&after)
	const budget = 1 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one Depth-n-MM cell allocated %d KiB", got>>10)
	if got > budget {
		t.Errorf("one Depth-n-MM cell allocated %d KiB, want <= %d KiB", got>>10, budget>>10)
	}
}
