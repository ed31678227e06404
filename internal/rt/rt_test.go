package rt

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestReduceCorrect(t *testing.T) {
	n := 1 << 16
	want := int64(n) * int64(n-1) / 2
	for _, p := range []int{1, 2, 4, 8} {
		for _, pol := range []Policy{Random, Priority} {
			pool := NewPool(p, pol)
			t.Cleanup(pool.Close)
			var got int64
			pool.Run(func(c *Ctx) {
				got = c.Reduce(0, n, 512, func(i int) int64 { return int64(i) })
			})
			if got != want {
				t.Errorf("p=%d policy=%d: sum = %d, want %d", p, pol, got, want)
			}
		}
	}
}

func TestForCoversAllIndices(t *testing.T) {
	n := 1 << 14
	hits := make([]int32, n)
	pool := NewPool(4, Random)
	t.Cleanup(pool.Close)
	pool.Run(func(c *Ctx) {
		c.For(0, n, 128, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestParallelBothRun(t *testing.T) {
	pool := NewPool(2, Priority)
	t.Cleanup(pool.Close)
	var a, b atomic.Bool
	pool.Run(func(c *Ctx) {
		c.Parallel(
			func(c *Ctx) { a.Store(true) },
			func(c *Ctx) { b.Store(true) },
		)
	})
	if !a.Load() || !b.Load() {
		t.Error("Parallel did not run both branches")
	}
}

func TestNestedForks(t *testing.T) {
	pool := NewPool(4, Random)
	t.Cleanup(pool.Close)
	var total atomic.Int64
	var fib func(c *Ctx, n int) int64
	fib = func(c *Ctx, n int) int64 {
		if n < 2 {
			total.Add(1)
			return int64(n)
		}
		var r int64
		h := c.Fork(func(c *Ctx) { r = fib(c, n-2) })
		l := fib(&Ctx{w: c.w, depth: c.depth + 1}, n-1)
		c.Join(h)
		return l + r
	}
	var got int64
	pool.Run(func(c *Ctx) { got = fib(c, 15) })
	if got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

func TestStealsHappen(t *testing.T) {
	// On a single-CPU host a whole Run can finish on the worker that took
	// the root before the Go scheduler ever gives a woken thief its time
	// slice, so any one Run may legitimately observe zero steals.  Stealing
	// is a property of the pool, not of one scheduling outcome: the leaves
	// yield now and then so a runnable thief gets the CPU, and repeated Runs
	// (the counter accumulates across them) go on until a steal shows up.
	pool := NewPool(4, Random)
	t.Cleanup(pool.Close)
	for round := 0; round < 200; round++ {
		pool.Run(func(c *Ctx) {
			c.Reduce(0, 1<<18, 256, func(i int) int64 {
				if i%(1<<12) == 0 {
					runtime.Gosched()
				}
				return 1
			})
		})
		if pool.Steals() > 0 {
			return
		}
	}
	t.Error("expected steals on a 4-worker pool within 200 runs")
}

func TestPoolReuse(t *testing.T) {
	pool := NewPool(3, Priority)
	t.Cleanup(pool.Close)
	for round := 0; round < 3; round++ {
		var got int64
		pool.Run(func(c *Ctx) {
			got = c.Reduce(0, 1000, 64, func(i int) int64 { return 2 })
		})
		if got != 2000 {
			t.Fatalf("round %d: got %d", round, got)
		}
	}
}
