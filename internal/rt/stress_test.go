package rt

// Stress tests for the pool: many tiny forked tasks under both victim
// policies, shared-state mutation ordered only by Fork/Join edges, and
// concurrent independent pools.  These are the harness's execution
// substrate; run them with -race (scripts/run_all.sh does).

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func policies() map[string]Policy {
	return map[string]Policy{"random": Random, "priority": Priority}
}

// TestStressManySmallForks floods the pool with single-increment tasks so
// deque push/pop/steal interleave as densely as possible.
func TestStressManySmallForks(t *testing.T) {
	const tasks = 2000
	for name, pol := range policies() {
		t.Run(name, func(t *testing.T) {
			for _, p := range []int{2, 4, 8} {
				pool := NewPool(p, pol)
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
}

// TestStressDeepRecursiveForks exercises steal-depth bookkeeping with a
// fine-grained divide-and-conquer tree (grain 1: every leaf is a task).
func TestStressDeepRecursiveForks(t *testing.T) {
	const n = 1 << 12
	for name, pol := range policies() {
		t.Run(name, func(t *testing.T) {
			pool := NewPool(8, pol)
			t.Cleanup(pool.Close)
			var got int64
			pool.Run(func(c *Ctx) {
				got = c.Reduce(0, n, 1, func(i int) int64 { return int64(i) })
			})
			if want := int64(n) * (n - 1) / 2; got != want {
				t.Fatalf("sum = %d, want %d", got, want)
			}
		})
	}
}

// TestStressJoinOrdersWrites checks the happens-before edge Join must
// provide: a plain (non-atomic) write inside a forked task is visible to
// the joiner without extra synchronization.  Under -race this fails loudly
// if the done-flag protocol is broken.
func TestStressJoinOrdersWrites(t *testing.T) {
	for name, pol := range policies() {
		t.Run(name, func(t *testing.T) {
			pool := NewPool(4, pol)
			t.Cleanup(pool.Close)
			const rounds = 500
			results := make([]int64, rounds)
			pool.Run(func(c *Ctx) {
				hs := make([]Handle, rounds)
				for i := range hs {
					i := i
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
}

// TestStressParallelMixedDepths interleaves Parallel and For so shallow and
// deep tasks coexist in the deques (the priority policy scans head depths
// while owners mutate the other end).
func TestStressParallelMixedDepths(t *testing.T) {
	for name, pol := range policies() {
		t.Run(name, func(t *testing.T) {
			pool := NewPool(6, pol)
			t.Cleanup(pool.Close)
			var count atomic.Int64
			pool.Run(func(c *Ctx) {
				c.Parallel(
					func(c *Ctx) {
						c.For(0, 1024, 4, func(int) { count.Add(1) })
					},
					func(c *Ctx) {
						c.Parallel(
							func(c *Ctx) { c.For(0, 512, 1, func(int) { count.Add(1) }) },
							func(c *Ctx) {
								var fib func(c *Ctx, n int) int64
								fib = func(c *Ctx, n int) int64 {
									if n < 2 {
										count.Add(1)
										return int64(n)
									}
									var r int64
									h := c.Fork(func(c *Ctx) { r = fib(c, n-2) })
									l := fib(&Ctx{w: c.w, depth: c.depth + 1}, n-1)
									c.Join(h)
									return l + r
								}
								fib(c, 12)
							},
						)
					},
				)
			})
			if count.Load() == 0 {
				t.Fatal("no work ran")
			}
		})
	}
}

// TestStressConcurrentPools runs independent pools from independent
// goroutines — exactly what the harness does when an experiment cell
// (EXP12 aside) spins up its own simulated runs while other cells execute.
func TestStressConcurrentPools(t *testing.T) {
	const pools = 6
	done := make(chan int64, pools)
	for k := 0; k < pools; k++ {
		k := k
		go func() {
			pol := Random
			if k%2 == 1 {
				pol = Priority
			}
			pool := NewPool(3, pol)
			defer pool.Close()
			var got int64
			pool.Run(func(c *Ctx) {
				got = c.Reduce(0, 20000, 64, func(i int) int64 { return 1 })
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
	for name, pol := range policies() {
		t.Run(name, func(t *testing.T) {
			pool := NewPool(4, pol)
			t.Cleanup(pool.Close)
			for round := 0; round < 20; round++ {
				var count atomic.Int64
				pool.Run(func(c *Ctx) {
					c.For(0, 256, 2, func(int) { count.Add(1) })
				})
				if count.Load() != 256 {
					t.Fatalf("round %d: %d iterations", round, count.Load())
				}
			}
		})
	}
}

// TestBackoffDoesNotLoseWakeup pins GOMAXPROCS to 1 so sleeping idle
// workers must still observe newly pushed tasks promptly.
func TestBackoffDoesNotLoseWakeup(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	pool := NewPool(8, Priority)
	t.Cleanup(pool.Close)
	var got int64
	pool.Run(func(c *Ctx) {
		got = c.Reduce(0, 1<<14, 16, func(i int) int64 { return 1 })
	})
	if got != 1<<14 {
		t.Fatalf("got %d", got)
	}
}
