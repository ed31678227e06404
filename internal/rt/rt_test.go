package rt

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// forkSum sums f(i) over [lo, hi) by binary Fork/Join down to grain: the
// divide-and-conquer shape fj's lowering gives every kernel.
func forkSum(c *Ctx, lo, hi, grain int, f func(i int) int64) int64 {
	if hi-lo <= grain {
		var s int64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		return s
	}
	mid := lo + (hi-lo)/2
	var right int64
	h := c.Fork(func(c *Ctx) { right = forkSum(c, mid, hi, grain, f) })
	left := forkSum(c, lo, mid, grain, f)
	c.Join(h)
	return left + right
}

func TestReduceCorrect(t *testing.T) {
	n := 1 << 16
	want := int64(n) * int64(n-1) / 2
	for _, p := range []int{1, 2, 4, 8} {
		pool := NewPool(p, Random)
		t.Cleanup(pool.Close)
		var got int64
		pool.Run(func(c *Ctx) {
			got = forkSum(c, 0, n, 512, func(i int) int64 { return int64(i) })
		})
		if got != want {
			t.Errorf("p=%d: sum = %d, want %d", p, got, want)
		}
	}
}

func TestForCoversAllIndices(t *testing.T) {
	n := 1 << 14
	hits := make([]int32, n)
	pool := NewPool(4, Random)
	t.Cleanup(pool.Close)
	pool.Run(func(c *Ctx) {
		forkSum(c, 0, n, 128, func(i int) int64 {
			atomic.AddInt32(&hits[i], 1)
			return 0
		})
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestParallelBothRun(t *testing.T) {
	pool := NewPool(2, Random)
	t.Cleanup(pool.Close)
	var a, b atomic.Bool
	pool.Run(func(c *Ctx) {
		h := c.Fork(func(*Ctx) { b.Store(true) })
		a.Store(true)
		c.Join(h)
	})
	if !a.Load() || !b.Load() {
		t.Error("Fork/Join did not run both branches")
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
		l := fib(c, n-1)
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
			forkSum(c, 0, 1<<18, 256, func(i int) int64 {
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
	pool := NewPool(3, Random)
	t.Cleanup(pool.Close)
	for round := 0; round < 3; round++ {
		var got int64
		pool.Run(func(c *Ctx) {
			got = forkSum(c, 0, 1000, 64, func(i int) int64 { return 2 })
		})
		if got != 2000 {
			t.Fatalf("round %d: got %d", round, got)
		}
	}
}

// TestDequeEmptyTracksOwnForks pins the signal fj's loop splitting polls on
// one worker, where no thief interferes: a root starts on an empty deque,
// a fork fills it, and joining that fork (the owner pops it back) empties it.
func TestDequeEmptyTracksOwnForks(t *testing.T) {
	pool := NewPool(1, Random)
	t.Cleanup(pool.Close)
	pool.Run(func(c *Ctx) {
		if !c.DequeEmpty() {
			t.Error("a root starts on a non-empty deque")
		}
		h := c.Fork(func(*Ctx) {})
		if c.DequeEmpty() {
			t.Error("deque empty right after a fork")
		}
		c.Join(h)
		if !c.DequeEmpty() {
			t.Error("deque not empty after joining the only fork")
		}
	})
}
