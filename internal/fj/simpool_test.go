package fj

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Pins of the pooled sim lowering: what a simulated fork allocates, how many
// coroutines a run starts, and that a run's coroutines end — after a normal
// return, and after a panic when tasks already ran on recycled coroutines.

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

// TestSimCoroutineAllocsPerFork caps a simulated fork at 3 allocations.  A
// fork cost 23 when every task started its own coroutine and built a Ctx
// and three Nodes; pooled coroutines own those, so what is left is the
// first use of each coroutine and its levels and the engine's own set-up.
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

// TestSimCoroutinePoolBounded: a coroutine is busy while its task is
// queued, running or waiting in a Join, so a run needs at most about two
// per level of the task tree per core — not one per task.  The pool must
// start no more than 2·depth·p, whatever the scheduler (1023-fork trees
// read 11, 20 and 62 at p = 1, 2, 8 under PWS).
func TestSimCoroutinePoolBounded(t *testing.T) {
	tree := forkTree(treeDepth)
	for _, p := range []int{1, 2, 8} {
		for _, s := range []core.Scheduler{sched.NewPWS(), sched.NewRWS(3)} {
			var started int
			RunSim(machine.New(machine.Default(p)), s, core.Options{}, 1, "tree", func(c *Ctx) {
				tree(c)
				started = len(c.st.run.live)
			})
			if started > 2*treeDepth*p {
				t.Errorf("p = %d, %T: %d coroutines started, want <= %d", p, s, started, 2*treeDepth*p)
			}
		}
	}
}

// TestSimCoroutinesEndAfterNormalReturn: a run that returns normally stops
// every coroutine it parked; none outlives it.
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

// warmUp runs a Parallel tree before body and records every coroutine its
// tasks ran on, so that body's tasks run on recycled coroutines while others
// sit parked in the free list.
func warmUp(seen map[*simTask]bool, body func(*Ctx)) func(*Ctx) {
	var tree func(c *Ctx, depth int)
	tree = func(c *Ctx, depth int) {
		seen[c.st] = true
		if depth > 0 {
			c.Parallel(func(c *Ctx) { tree(c, depth-1) }, func(c *Ctx) { tree(c, depth-1) })
		}
	}
	return func(c *Ctx) {
		tree(c, 6)
		body(c)
	}
}

// TestSimCoroutineReusedPanicTearsDown: a task that panics on a recycled
// coroutine, with other coroutines parked, still gets "boom" to the caller
// and leaves no goroutine behind — TestPanicTearsDownCoroutines with the
// pool warmed up.
func TestSimCoroutineReusedPanicTearsDown(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, p := range []int{1, 4} {
		seen := map[*simTask]bool{}
		var reused, parked bool
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("p = %d: recovered %v, want boom", p, r)
				}
			}()
			RunSim(machine.New(machine.Default(p)), sched.NewPWS(), core.Options{}, 8, "panicky", warmUp(seen, func(c *Ctx) {
				hA := c.Fork(func(c *Ctx) {
					h := c.Fork(func(*Ctx) {})
					c.Join(h)
				})
				hB := c.Fork(func(c *Ctx) {
					reused, parked = seen[c.st], c.st.run.free != nil
					panic("boom")
				})
				c.Join(hB)
				c.Join(hA)
			}))
		}()
		if !reused || !parked {
			t.Errorf("p = %d: panicking task on a recycled coroutine %v, with coroutines parked %v; want both", p, reused, parked)
		}
	}
	awaitGoroutines(t, before)
}

// TestSimCoroutineReusedUnjoinedPanics: the unjoined-forks check runs for
// every task body a coroutine runs, not only its first.
func TestSimCoroutineReusedUnjoinedPanics(t *testing.T) {
	before := runtime.NumGoroutine()
	seen := map[*simTask]bool{}
	var reused bool
	func() {
		defer func() {
			if r, _ := recover().(string); !strings.Contains(r, "unjoined forks") {
				t.Fatalf("recovered %q, want the unjoined-forks panic", r)
			}
		}()
		RunSim(machine.New(machine.Default(2)), sched.NewPWS(), core.Options{}, 8, "bad", warmUp(seen, func(c *Ctx) {
			h := c.Fork(func(c *Ctx) {
				reused = seen[c.st]
				c.Fork(func(*Ctx) {}) //lint:allow fjdiscipline deliberate violation: asserts a recycled coroutine still panics on an unjoined fork
			})
			c.Join(h)
		}))
	}()
	if !reused {
		t.Error("the unjoined fork did not run on a recycled coroutine")
	}
	awaitGoroutines(t, before)
}

// TestSimCoroutineNodeReruns: SimNode's node runs again after its run
// closed, with the same result.
func TestSimCoroutineNodeReruns(t *testing.T) {
	node := SimNode(1, "tree", forkTree(6))
	run := func() core.Result {
		return core.NewEngine(machine.New(machine.Default(4)), sched.NewPWS(), core.Options{}).Run(node)
	}
	a, b := run(), run()
	if a.Work == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("re-run of one SimNode differs:\n%+v\n%+v", a, b)
	}
}
