package rt

// Stress tests for the pool: many tiny forked tasks, shared-state mutation
// ordered only by Fork/Join edges, and concurrent independent pools.  Run
// them with -race (scripts/run_all.sh does).  Subtests are named for the
// victim rule, random, the pool's only one.

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestStressManySmallForks floods the pool with single-increment tasks so
// deque push/pop/steal interleave as densely as possible.
func TestStressManySmallForks(t *testing.T) {
	const tasks = 2000
	t.Run("random", func(t *testing.T) {
		for _, p := range []int{2, 4, 8} {
			pool := NewPool(p, Random)
			t.Cleanup(pool.Close)
			var count atomic.Int64
			pool.Run(func(c *Ctx) {
				hs := make([]Handle, tasks)
				for i := range hs {
					hs[i] = c.Fork(func(*Ctx) { count.Add(1) })
				}
				for _, h := range hs {
					c.Join(h)
				}
			})
			if got := count.Load(); got != tasks {
				t.Fatalf("p=%d: ran %d tasks, want %d", p, got, tasks)
			}
		}
	})
}

// TestStressDeepRecursiveForks runs a fine-grained divide-and-conquer tree
// (grain 1: every leaf is a task).
func TestStressDeepRecursiveForks(t *testing.T) {
	const n = 1 << 12
	t.Run("random", func(t *testing.T) {
		pool := NewPool(8, Random)
		t.Cleanup(pool.Close)
		var got int64
		pool.Run(func(c *Ctx) {
			got = forkSum(c, 0, n, 1, func(i int) int64 { return int64(i) })
		})
		if want := int64(n) * (n - 1) / 2; got != want {
			t.Fatalf("sum = %d, want %d", got, want)
		}
	})
}

// TestStressJoinOrdersWrites checks the happens-before edge Join must
// provide: a plain (non-atomic) write inside a forked task is visible to
// the joiner without extra synchronization.  Under -race this fails loudly
// if the done-flag protocol is broken.
func TestStressJoinOrdersWrites(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		pool := NewPool(4, Random)
		t.Cleanup(pool.Close)
		const rounds = 500
		results := make([]int64, rounds)
		pool.Run(func(c *Ctx) {
			hs := make([]Handle, rounds)
			for i := range hs {
				hs[i] = c.Fork(func(*Ctx) { results[i] = int64(i) * 3 })
			}
			for i, h := range hs {
				c.Join(h)
				if results[i] != int64(i)*3 {
					t.Errorf("join %d saw stale value %d", i, results[i])
				}
			}
		})
	})
}

// TestStressParallelMixedDepths nests trees of different grains and a fib
// recursion under one root, so shallow and deep tasks coexist in the deques
// while owners and thieves work both ends.
func TestStressParallelMixedDepths(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		pool := NewPool(6, Random)
		t.Cleanup(pool.Close)
		var count atomic.Int64
		one := func(int) int64 { count.Add(1); return 0 }
		var fib func(c *Ctx, n int) int64
		fib = func(c *Ctx, n int) int64 {
			if n < 2 {
				count.Add(1)
				return int64(n)
			}
			var r int64
			h := c.Fork(func(c *Ctx) { r = fib(c, n-2) })
			l := fib(c, n-1)
			c.Join(h)
			return l + r
		}
		pool.Run(func(c *Ctx) {
			h := c.Fork(func(c *Ctx) {
				h := c.Fork(func(c *Ctx) { fib(c, 12) })
				forkSum(c, 0, 512, 1, one)
				c.Join(h)
			})
			forkSum(c, 0, 1024, 4, one)
			c.Join(h)
		})
		if count.Load() == 0 {
			t.Fatal("no work ran")
		}
	})
}

// TestStressConcurrentPools runs independent pools from independent
// goroutines at once.
func TestStressConcurrentPools(t *testing.T) {
	const pools = 6
	done := make(chan int64, pools)
	for k := 0; k < pools; k++ {
		go func() {
			pool := NewPool(3, Random)
			defer pool.Close()
			var got int64
			pool.Run(func(c *Ctx) {
				got = forkSum(c, 0, 20000, 64, func(i int) int64 { return 1 })
			})
			done <- got
		}()
	}
	for k := 0; k < pools; k++ {
		if got := <-done; got != 20000 {
			t.Fatalf("pool %d: got %d, want 20000", k, got)
		}
	}
}

// TestStressReuseAcrossPolicyRuns re-runs one pool many times; the gap
// between roots is where a worker parking would race the next Submit.
func TestStressReuseAcrossPolicyRuns(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		pool := NewPool(4, Random)
		t.Cleanup(pool.Close)
		for round := 0; round < 20; round++ {
			var count atomic.Int64
			pool.Run(func(c *Ctx) {
				forkSum(c, 0, 256, 2, func(int) int64 { count.Add(1); return 0 })
			})
			if count.Load() != 256 {
				t.Fatalf("round %d: %d iterations", round, count.Load())
			}
		}
	})
}

// TestBackoffDoesNotLoseWakeup pins GOMAXPROCS to 1 so sleeping idle
// workers must still observe newly pushed tasks promptly.
func TestBackoffDoesNotLoseWakeup(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	pool := NewPool(8, Random)
	t.Cleanup(pool.Close)
	var got int64
	pool.Run(func(c *Ctx) {
		got = forkSum(c, 0, 1<<14, 16, func(i int) int64 { return 1 })
	})
	if got != 1<<14 {
		t.Fatalf("got %d", got)
	}
}
