package rt

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// raised runs f and returns what it panicked with, nil if it returned.
func raised(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// spinUntil yields until flag is set: a parent that waits this way for its
// child to start leaves the child to a thief.
func spinUntil(flag *atomic.Bool) {
	for !flag.Load() {
		runtime.Gosched()
	}
}

// TestStolenPanicRaisedAtJoin: at p = 2, a forked task a thief runs
// panics.  Join raises the same value on the parent, Run raises it in its
// caller, and the same pool then runs a clean root.
func TestStolenPanicRaisedAtJoin(t *testing.T) {
	pool := NewPool(2, Random)
	t.Cleanup(pool.Close)
	for i := 0; i < 3; i++ {
		boom := errors.New("boom")
		var atJoin any
		steals := pool.Steals()
		got := raised(func() {
			pool.Run(func(c *Ctx) {
				var started atomic.Bool
				h := c.Fork(func(*Ctx) {
					started.Store(true)
					panic(boom)
				})
				spinUntil(&started)
				defer func() {
					atJoin = recover()
					panic(atJoin)
				}()
				c.Join(h)
			})
		})
		if atJoin != boom || got != boom {
			t.Fatalf("round %d: Join raised %v, Run raised %v; want %v from both", i, atJoin, got, boom)
		}
		if pool.Steals() == steals {
			t.Fatalf("round %d: the panicking task was not stolen", i)
		}
		runsClean(t, pool)
	}
}

// TestHelperJoinSurvivesForeignPanic: a worker helping inside a Join runs
// somebody else's task, which panics.  The panic reaches that task's own
// parent, and the helper's Join returns normally.
//
// The schedule is forced at p = 2, each step waiting for the one before:
// the root (worker A) forks S, which worker B steals; S forks Y and waits,
// so A, joining S, steals Y; Y forks P and waits, so B, joining Y, steals P,
// which panics inside B's Join.  Y recovers P's panic at its Join, so Y and
// then S's Join on B end normally.
func TestHelperJoinSurvivesForeignPanic(t *testing.T) {
	pool := NewPool(2, Random)
	t.Cleanup(pool.Close)
	boom := errors.New("boom")
	var sStarted, yStarted, pStarted, helperReturned atomic.Bool
	var helper, panicker *worker
	var atY any
	pool.Run(func(c *Ctx) {
		hS := c.Fork(func(c *Ctx) {
			sStarted.Store(true)
			helper = c.w
			hY := c.Fork(func(c *Ctx) {
				yStarted.Store(true)
				hP := c.Fork(func(c *Ctx) {
					panicker = c.w
					pStarted.Store(true)
					panic(boom)
				})
				spinUntil(&pStarted)
				atY = raised(func() { c.Join(hP) })
			})
			spinUntil(&yStarted)
			c.Join(hY)
			helperReturned.Store(true)
		})
		spinUntil(&sStarted)
		c.Join(hS)
	})
	if atY != boom {
		t.Fatalf("P's parent joined %v, want %v", atY, boom)
	}
	if panicker != helper || !helperReturned.Load() {
		t.Fatalf("P ran on the helper: %v; the helper's Join returned: %v; want both", panicker == helper, helperReturned.Load())
	}
}
