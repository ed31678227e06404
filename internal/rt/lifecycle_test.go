package rt

// Lifecycle gates for the long-lived pool: concurrent roots, the
// Submit-versus-park race, scheduling order, Close.  Run them under -race.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentRootsExactlyOnce drives one pool from several goroutines at
// once, alternating Run and Submit, every root forking a 64-leaf tree: each
// leaf of each root runs exactly once and Executed() accounts for every task.
func TestConcurrentRootsExactlyOnce(t *testing.T) {
	const submitters, perSubmitter, leaves = 8, 40, 64
	pool := NewPool(4, Random)
	t.Cleanup(pool.Close)
	hits := make([]atomic.Int32, submitters*perSubmitter*leaves)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var submitted sync.WaitGroup
			for r := 0; r < perSubmitter; r++ {
				base := (g*perSubmitter + r) * leaves
				root := func(c *Ctx) {
					forkSum(c, 0, leaves, 1, func(i int) int64 { hits[base+i].Add(1); return 0 })
				}
				if r%2 == 0 {
					pool.Run(root)
					continue
				}
				submitted.Add(1)
				pool.Submit(func(c *Ctx) {
					root(c)
					submitted.Done()
				})
			}
			submitted.Wait()
		}(g)
	}
	wg.Wait()
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("leaf %d ran %d times", i, got)
		}
	}
	// A 64-leaf grain-1 forkSum forks 63 times; plus the root itself.
	if got, want := pool.Executed(), int64(submitters*perSubmitter*leaves); got != want {
		t.Errorf("Executed() = %d, want %d", got, want)
	}
}

// TestSubmitWakesParkedPool is the lost-wake-up gate: once every worker has
// announced idleness — some asleep, some between the announcement and the
// sleep — a lone Submit must still get its root run.
func TestSubmitWakesParkedPool(t *testing.T) {
	const p, rounds = 4, 10000
	pool := NewPool(p, Random)
	t.Cleanup(pool.Close)
	pool.Run(func(*Ctx) {}) // start the workers
	timeout := time.NewTimer(time.Minute)
	defer timeout.Stop()
	for i := 0; i < rounds; i++ {
		for pool.idlers.Load() != p {
			runtime.Gosched()
		}
		done := make(chan struct{})
		pool.Submit(func(*Ctx) { close(done) })
		select {
		case <-done:
		case <-timeout.C:
			t.Fatalf("round %d: root never ran on a fully parked pool — lost wake-up", i)
		}
	}
}

// TestSmallRootOvertakesLongRoot is the scheduling-order gate: a long root
// keeps producing many-leaf rounds until it sees the small root, submitted
// while it runs, complete.  If injected roots waited for the long root the
// long root would hit its deadline instead.
func TestSmallRootOvertakesLongRoot(t *testing.T) {
	pool := NewPool(2, Random)
	t.Cleanup(pool.Close)
	var smallDone, overtaken atomic.Bool
	running := make(chan struct{})
	longDone := make(chan struct{})
	pool.Submit(func(c *Ctx) {
		defer close(longDone)
		close(running)
		var sink atomic.Int64
		for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
			forkSum(c, 0, 512, 1, func(i int) int64 { sink.Add(int64(i)); return 0 })
			if smallDone.Load() {
				overtaken.Store(true)
				return
			}
		}
	})
	<-running
	pool.Run(func(*Ctx) { smallDone.Store(true) })
	<-longDone
	if !overtaken.Load() {
		t.Fatal("the small root did not complete while the long root was running")
	}
}

// waitGoroutines polls until the goroutine count is back at baseline (an
// exiting worker is still counted for an instant after wg.Done).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, baseline %d — workers leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseJoinsWorkers: a pool that never ran owns no goroutine, and
// create/run/Close leaves none behind.
func TestCloseJoinsWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	idle := NewPool(8, Random)
	if got := runtime.NumGoroutine(); got != baseline {
		t.Errorf("NewPool started %d goroutines before any root", got-baseline)
	}
	idle.Close()
	for i := 0; i < 100; i++ {
		pool := NewPool(4, Random)
		var sum int64
		pool.Run(func(c *Ctx) { sum = forkSum(c, 0, 1000, 16, func(int) int64 { return 1 }) })
		if sum != 1000 {
			t.Fatalf("round %d: sum %d", i, sum)
		}
		pool.Close()
		pool.Close() // idempotent
	}
	waitGoroutines(t, baseline)
}

// TestCloseRunsSubmittedRoots: roots submitted before Close run even if no
// worker had taken them yet; Submit after Close panics instead of dropping
// the root.
func TestCloseRunsSubmittedRoots(t *testing.T) {
	const roots = 200
	pool := NewPool(2, Random)
	var ran atomic.Int64
	for i := 0; i < roots; i++ {
		pool.Submit(func(c *Ctx) {
			forkSum(c, 0, 8, 1, func(int) int64 { ran.Add(1); return 0 })
		})
	}
	pool.Close()
	if got := ran.Load(); got != roots*8 {
		t.Fatalf("Close returned with %d of %d leaves run", got, roots*8)
	}
	defer func() {
		if recover() == nil {
			t.Error("Submit on a closed pool did not panic")
		}
	}()
	pool.Submit(func(*Ctx) { t.Error("root ran on a closed pool") })
}
