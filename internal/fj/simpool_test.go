package fj

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Pins of the sim lowering's recording run: what a simulated fork
// allocates, how many task contexts a run keeps, that a run starts no
// goroutine, how it ends on a panic, and what a second run on the same
// machine finds.

// treeDepth is the depth of forkTree: 2^treeDepth − 1 = 1023 forks.
const treeDepth = 10

// forkTree returns a binary Parallel tree of the given depth, its closures
// built up front so that running it allocates nothing of its own: what a run
// allocates is the lowering's.
func forkTree(depth int) func(*Ctx) {
	fn := func(*Ctx) {}
	for range depth {
		sub := fn
		fn = func(c *Ctx) { c.Parallel(sub, sub) }
	}
	return fn
}

// TestSimCoroutineAllocsPerFork caps a simulated fork — recording it and
// replaying it — at 3 allocations.  The recording reuses its task contexts
// and writes the tape in 256 KiB pages; the replay pools its nodes and the
// engine its task records.
func TestSimCoroutineAllocsPerFork(t *testing.T) {
	const forks = 1<<treeDepth - 1
	tree := forkTree(treeDepth)
	for _, p := range []int{1, 8} {
		m := machine.New(machine.Default(p))
		got := testing.AllocsPerRun(5, func() {
			RunSim(m, sched.NewPWS(), core.Options{}, 1, "tree", tree)
		})
		t.Logf("p = %d: %.2f allocations per fork", p, got/forks)
		if got > 3*forks {
			t.Errorf("p = %d: %.0f allocations for %d forks, want <= 3 per fork", p, got, forks)
		}
	}
}

// TestSimCoroutinePoolBounded: a recording runs one task at a time, and a
// task's context returns to the run when the task does, so a run keeps one
// context per level of its task tree — not one per task.
func TestSimCoroutinePoolBounded(t *testing.T) {
	var kept int
	RunSim(machine.New(machine.Default(2)), sched.NewPWS(), core.Options{}, 1, "tree", func(c *Ctx) {
		forkTree(treeDepth)(c)
		kept = len(c.sim.free)
	})
	if kept != treeDepth {
		t.Errorf("the run kept %d task contexts, want %d", kept, treeDepth)
	}
}

// TestSimCoroutinesEndAfterNormalReturn: a run that returns normally leaves
// no goroutine behind.
func TestSimCoroutinesEndAfterNormalReturn(t *testing.T) {
	before := runtime.NumGoroutine()
	tree := forkTree(treeDepth)
	for _, p := range []int{1, 8} {
		for range 4 {
			RunSim(machine.New(machine.Default(p)), sched.NewPWS(), core.Options{}, 1, "tree", tree)
		}
	}
	awaitGoroutines(t, before)
}

// warmUp runs a Parallel tree before body and records every context its
// tasks ran under, so that body's tasks run under recycled ones.
func warmUp(seen map[*Ctx]bool, body func(*Ctx)) func(*Ctx) {
	var tree func(c *Ctx, depth int)
	tree = func(c *Ctx, depth int) {
		seen[c] = true
		if depth > 0 {
			c.Parallel(func(c *Ctx) { tree(c, depth-1) }, func(c *Ctx) { tree(c, depth-1) })
		}
	}
	return func(c *Ctx) {
		tree(c, 6)
		body(c)
	}
}

// TestSimCoroutineReusedPanicTearsDown: a task that panics under a recycled
// context still gets "boom" to the caller and leaves no goroutine behind —
// TestPanicTearsDownCoroutines with the run warmed up.
func TestSimCoroutineReusedPanicTearsDown(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, p := range []int{1, 4} {
		seen := map[*Ctx]bool{}
		var reused bool
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("p = %d: recovered %v, want boom", p, r)
				}
			}()
			RunSim(machine.New(machine.Default(p)), sched.NewPWS(), core.Options{}, 8, "panicky", warmUp(seen, func(c *Ctx) {
				c.Parallel(func(c *Ctx) {
					c.Parallel(func(*Ctx) {}, func(c *Ctx) {
						reused = seen[c]
						panic("boom")
					})
				}, func(c *Ctx) {
					c.Parallel(func(*Ctx) {}, func(*Ctx) {})
				})
			}))
		}()
		if !reused {
			t.Errorf("p = %d: the panicking task did not run under a recycled context", p)
		}
	}
	awaitGoroutines(t, before)
}

// TestSimCoroutineNodeReruns: one program, lowered on two fresh machines,
// gives equal results.
func TestSimCoroutineNodeReruns(t *testing.T) {
	run := func() core.Result {
		m := machine.New(machine.Default(4))
		node := SimNode(m, 1, "tree", forkTree(6))
		return core.NewEngine(m, sched.NewPWS(), core.Options{}).Run(node)
	}
	a, b := run(), run()
	if a.Work == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("two lowerings of one program differ:\n%+v\n%+v", a, b)
	}
}

// TestSimRerunReadsZeroedScratch: a second recording on the same machine
// finds the scratch AllocI64 hands it zeroed, though the first one filled
// scratch at the same addresses.
func TestSimRerunReadsZeroedScratch(t *testing.T) {
	const n = 64
	m := machine.New(machine.Default(2))
	out := NewSimEnv(m).I64(2)
	var bases [2]int64
	prog := func(run int) func(*Ctx) {
		return func(c *Ctx) {
			s := c.AllocI64(n)
			bases[run] = s.a.Base
			var sum int64
			for i := range int64(n) {
				sum += s.Get(c, i)
				s.Set(c, i, i+1)
			}
			out.Set(c, int64(run), sum)
		}
	}
	SimNode(m, n, "scratch", prog(0))
	RunSim(m, sched.NewPWS(), core.Options{}, n, "scratch", prog(1))
	if bases[1] != bases[0] {
		t.Fatalf("the second run's scratch is at %d, the first's at %d", bases[1], bases[0])
	}
	if got := out.Words(); got[0] != 0 || got[1] != 0 {
		t.Errorf("scratch read as %v before it was written, want zeros", got)
	}
}
