package rt

// Frame and scratch reuse: a joined fork frame serves the next fork on the
// joining worker, and the scratch slabs that stealing moves from one
// worker's shard to another's stay bounded.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
)

// rangeBody is a func-typed Body, the shape a frontend forks ranges with.
type rangeBody func(c *Ctx, lo, hi int64)

func (b rangeBody) Run(c *Ctx, lo, hi int64) { b(c, lo, hi) }

// TestForkJoinAllocatesNothing: once a worker has a joined frame on its free
// list, a Fork+Join of a no-op allocates nothing, and neither does a
// ForkRange of a func-typed Body: the body and range ride in the frame.
// Before frames were reused, every 256th fork made a new 32 KiB slab.
func TestForkJoinAllocatesNothing(t *testing.T) {
	if arena.Poisoning {
		t.Skip("allocation pins are for the non-instrumented build")
	}
	const pairs = 1000
	var body rangeBody = func(*Ctx, int64, int64) {}
	for _, tc := range []struct {
		name string
		fork func(c *Ctx) Handle
	}{
		{"Fork", func(c *Ctx) Handle { return c.Fork(noop) }},
		{"ForkRange", func(c *Ctx) Handle { return c.ForkRange(body, 3, 7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewPool(1, Random)
			t.Cleanup(pool.Close)
			var m0, m1 runtime.MemStats
			pool.Run(func(c *Ctx) {
				c.Join(tc.fork(c))
				runtime.ReadMemStats(&m0)
				for i := 0; i < pairs; i++ {
					c.Join(tc.fork(c))
				}
				runtime.ReadMemStats(&m1)
			})
			if objs, bytes := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc; objs != 0 || bytes != 0 {
				t.Fatalf("%d %s+Join pairs allocated %d objects, %d bytes; want 0 and 0", pairs, tc.name, objs, bytes)
			}
		})
	}
}

// treeTag is the value the task at a tree path writes: a mix of the path
// and the round, so a frame that ran another task's body, or a stale one,
// shows up as a wrong tag at its joiner.
func treeTag(round, path uint64) uint64 {
	x := path*0x9E3779B97F4A7C15 ^ round*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return x*0x94D049BB133111EB | 1
}

// forks reports whether the task at path forks, and so decides the random
// shape of round's tree: a node above depth 20 forks with probability 3/4.
// A node that forks runs path 2p+1 as the fork and path 2p inline.
func forks(round, path uint64, depth int) bool {
	return depth < 20 && treeTag(round, path)>>62 != 0
}

// treeRange is the range the fork of the task at path is given in a
// round's ForkRange arm: distinct across paths and rounds.
func treeRange(round, path uint64) (lo, hi int64) {
	lo = int64(treeTag(round, path) >> 33)
	return lo, lo + int64(path)
}

// TestFrameReuseStress runs random binary fork trees at p = 4.  Every task
// returns its path's tag into a variable of its parent's; each joiner checks
// its child's tag after the Join, and every task must run once.  The
// ForkRange arm gives each fork the range treeRange derives from its path
// and round, and the task checks it received that range, so a reused frame
// that ran with the previous fork's range shows.  Frames must actually be
// reused: fewer distinct frames than forks.
func TestFrameReuseStress(t *testing.T) {
	for _, name := range []string{"Fork", "ForkRange"} {
		t.Run(name, func(t *testing.T) { frameReuseStress(t, name == "ForkRange") })
	}
}

func frameReuseStress(t *testing.T, ranged bool) {
	pool := NewPool(4, Random)
	t.Cleanup(pool.Close)
	var (
		mu     sync.Mutex
		frames = map[*task]bool{}
		forked int
	)
	for round := uint64(0); round < 40; round++ {
		var ran, bad, badRange atomic.Int64
		var node func(c *Ctx, path uint64, depth int) uint64
		node = func(c *Ctx, path uint64, depth int) uint64 {
			ran.Add(1)
			if forks(round, path, depth) {
				child := 2*path + 1
				var got uint64
				var h Handle
				if ranged {
					lo, hi := treeRange(round, child)
					h = c.ForkRange(rangeBody(func(c *Ctx, l, r int64) {
						if l != lo || r != hi {
							badRange.Add(1)
						}
						got = node(c, child, depth+1)
					}), lo, hi)
				} else {
					h = c.Fork(func(c *Ctx) { got = node(c, child, depth+1) })
				}
				mu.Lock()
				frames[h.t] = true
				forked++
				mu.Unlock()
				node(c, 2*path, depth+1)
				c.Join(h)
				if got != treeTag(round, child) {
					bad.Add(1)
				}
			}
			return treeTag(round, path)
		}
		var want int64
		var count func(path uint64, depth int)
		count = func(path uint64, depth int) {
			want++
			if forks(round, path, depth) {
				count(2*path+1, depth+1)
				count(2*path, depth+1)
			}
		}
		count(1, 0)
		pool.Run(func(c *Ctx) { node(c, 1, 0) })
		if bad.Load() != 0 || badRange.Load() != 0 || ran.Load() != want {
			t.Fatalf("round %d: %d wrong tags at joins, %d wrong ranges, %d tasks ran, want 0, 0 and %d",
				round, bad.Load(), badRange.Load(), ran.Load(), want)
		}
	}
	if len(frames) >= forked {
		t.Fatalf("%d forks used %d distinct frames: no frame was reused", forked, len(frames))
	}
	t.Logf("%d forks, %d distinct frames", forked, len(frames))
}

// TestStolenScratchStaysBounded: a task on worker 0 forks a child that
// takes slabs from its worker's shard, and joins only once the child has
// started, so worker 1 runs it; the task then releases the slabs on worker
// 0.  Every round moves slabs from worker 1's shard to worker 0's, the flow
// stealing sets up between a thief and its victim.  The slab bytes the
// pool's shards and their spill hold must stay within what the arena bounds
// them to, however many rounds run.
func TestStolenScratchStaysBounded(t *testing.T) {
	const (
		rounds = 1000
		slabs  = 8
		words  = 1024
	)
	pool := NewPool(2, Random)
	t.Cleanup(pool.Close)
	var wrong atomic.Int64 // tasks that ran on an unexpected worker
	round := func(c *Ctx) {
		var got [slabs][]int64
		var started atomic.Bool
		h := c.Fork(func(c *Ctx) {
			started.Store(true)
			if c.w.id != 1 {
				wrong.Add(1)
			}
			for i := range got {
				got[i] = c.Scratch().I64.Get(words)
			}
		})
		spinUntil(&started)
		c.Join(h)
		for _, s := range got {
			c.Scratch().I64.Put(s)
		}
	}
	for r := 0; r < rounds; r++ {
		pool.Run(func(c *Ctx) {
			if c.w.id == 0 {
				round(c)
				return
			}
			// The root landed on worker 1: hand the round to worker 0.
			var started atomic.Bool
			h := c.Fork(func(c *Ctx) {
				started.Store(true)
				if c.w.id != 0 {
					wrong.Add(1)
				}
				round(c)
			})
			spinUntil(&started)
			c.Join(h)
		})
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d tasks ran on the wrong worker", wrong.Load())
	}
	held := pool.workers[0].scratch.Spilled()
	for _, w := range pool.workers {
		held += w.scratch.Held()
	}
	if bound := arena.MaxSlabs(len(pool.workers)) * words * 8; held > bound {
		t.Fatalf("shards and spill hold %d bytes after %d rounds, want <= %d", held, rounds, bound)
	}
}
