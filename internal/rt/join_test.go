package rt

// Join discipline: each task joins exactly the forks it made, each once.
// rt checks both halves at run time — a stale Join panics, and a task that
// returns with a fork of its own unjoined raises errUnjoined where its
// panic would go — so a misuse is loud rather than a wait on a frame that
// nobody will complete, or that serves another fork by then.

import (
	"errors"
	"testing"
	"time"
)

// boundedPool returns a p-worker pool for roots run through runWithin.  A
// pool whose root never finished is left running at cleanup, so a test of a
// hang fails instead of hanging in Close.
func boundedPool(t *testing.T, p int) *Pool {
	pool := NewPool(p, Random)
	t.Cleanup(func() {
		if !t.Failed() {
			pool.Close()
		}
	})
	return pool
}

// runWithin runs root on pool and returns what Run raised, failing the test
// if the root is still running after 5 s.
func runWithin(t *testing.T, pool *Pool, root func(*Ctx)) any {
	t.Helper()
	got := make(chan any, 1)
	go func() { got <- raised(func() { pool.Run(root) }) }()
	select {
	case v := <-got:
		return v
	case <-time.After(5 * time.Second):
		t.Fatal("root still running after 5 s")
		return nil
	}
}

func noop(*Ctx) {}

// runsClean checks that pool still runs a fork tree to the right sum.
func runsClean(t *testing.T, pool *Pool) {
	t.Helper()
	var sum int64
	if v := runWithin(t, pool, func(c *Ctx) {
		sum = forkSum(c, 0, 1<<12, 64, func(i int) int64 { return int64(i) })
	}); v != nil {
		t.Fatalf("clean root raised %v", v)
	}
	if want := int64(1<<12) * (1<<12 - 1) / 2; sum != want {
		t.Fatalf("clean root summed %d, want %d", sum, want)
	}
}

// TestDoubleJoinPanics: a second Join of one handle panics instead of
// waiting on the released frame.
func TestDoubleJoinPanics(t *testing.T) {
	for _, p := range []int{1, 2} {
		pool := boundedPool(t, p)
		var second any
		if v := runWithin(t, pool, func(c *Ctx) {
			h := c.Fork(noop)
			c.Join(h)
			second = raised(func() { c.Join(h) })
		}); v != nil {
			t.Fatalf("p=%d: Run raised %v", p, v)
		}
		if second != errJoinedTwice {
			t.Fatalf("p=%d: second Join raised %v, want %q", p, second, errJoinedTwice)
		}
		runsClean(t, pool)
	}
}

// TestStaleJoinAfterReuse: h2 is forked onto the frame h1 was joined from,
// so a late Join(h1) would wait on h2's task; it panics, and h2 still joins
// cleanly and ran its own body.
func TestStaleJoinAfterReuse(t *testing.T) {
	for _, p := range []int{1, 2} {
		pool := boundedPool(t, p)
		var stale any
		var ran int
		if v := runWithin(t, pool, func(c *Ctx) {
			h1 := c.Fork(noop)
			c.Join(h1)
			h2 := c.Fork(func(*Ctx) { ran++ })
			if h2.t != h1.t {
				t.Errorf("p=%d: h2 did not reuse h1's frame", p)
			}
			stale = raised(func() { c.Join(h1) })
			c.Join(h2)
		}); v != nil {
			t.Fatalf("p=%d: Run raised %v", p, v)
		}
		if stale != errJoinedTwice || ran != 1 {
			t.Fatalf("p=%d: stale Join raised %v, h2 ran %d times; want %q and 1", p, stale, ran, errJoinedTwice)
		}
		runsClean(t, pool)
	}
}

// TestUnjoinedForkPanics runs every way a task can lose a fork — the result
// discarded, a handle never joined, handles stored and never joined — as a
// forked task, where its parent's Join raises errUnjoined, and as a Run
// root, where Run raises it.  The pool then runs a clean root.
func TestUnjoinedForkPanics(t *testing.T) {
	shapes := []struct {
		name string
		body func(c *Ctx)
	}{
		{"discarded", func(c *Ctx) { c.Fork(noop) }},
		{"never joined", func(c *Ctx) {
			h := c.Fork(noop)
			_ = h
		}},
		{"stored", func(c *Ctx) {
			var hs [4]Handle
			for i := range hs {
				hs[i] = c.Fork(noop)
			}
		}},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			for _, p := range []int{1, 2} {
				pool := boundedPool(t, p)
				var atJoin any
				if v := runWithin(t, pool, func(c *Ctx) {
					atJoin = raised(func() { c.Join(c.Fork(s.body)) })
				}); v != nil || atJoin != errUnjoined {
					t.Fatalf("p=%d forked: Join raised %v, Run raised %v; want %q and nil", p, atJoin, v, errUnjoined)
				}
				if v := runWithin(t, pool, s.body); v != errUnjoined {
					t.Fatalf("p=%d root: Run raised %v, want %q", p, v, errUnjoined)
				}
				runsClean(t, pool)
			}
		})
	}
}

// TestPanicWithForksOutstanding: a task that panics before joining its
// forks raises its own panic, not errUnjoined, at its parent's Join and,
// as a Run root, in Run's caller.
func TestPanicWithForksOutstanding(t *testing.T) {
	boom := errors.New("boom")
	body := func(c *Ctx) {
		c.Fork(noop)
		panic(boom)
	}
	for _, p := range []int{1, 2} {
		pool := boundedPool(t, p)
		var atJoin any
		if v := runWithin(t, pool, func(c *Ctx) {
			atJoin = raised(func() { c.Join(c.Fork(body)) })
		}); v != nil || atJoin != boom {
			t.Fatalf("p=%d forked: Join raised %v, Run raised %v; want %v and nil", p, atJoin, v, boom)
		}
		if v := runWithin(t, pool, body); v != boom {
			t.Fatalf("p=%d root: Run raised %v, want %v", p, v, boom)
		}
		runsClean(t, pool)
	}
}
