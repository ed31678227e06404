package rt

// Raw Chase–Lev deque tests: the exactly-once guarantee under a concurrent
// owner (push/pop at the bottom) and multiple thieves (CAS at the top),
// including ring growth mid-flight.  Run with -race (scripts/run_all.sh and
// CI do); the deque has no locks, so the race detector is the memory-model
// referee here.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func newTestDeque() *deque {
	d := &deque{}
	d.init(new(atomic.Int64), new(atomic.Int64))
	return d
}

// numberedTasks returns n task frames and the index of each, so a test can
// tell which task a pop or steal returned.
func numberedTasks(n int) ([]task, map[*task]int) {
	ts := make([]task, n)
	id := make(map[*task]int, n)
	for i := range ts {
		id[&ts[i]] = i
	}
	return ts, id
}

// TestDequeExactlyOnce floods one owner against several thieves and asserts
// every pushed task is taken exactly once, whether by pop or steal.
func TestDequeExactlyOnce(t *testing.T) {
	const (
		thieves = 4
		total   = 20000
	)
	d := newTestDeque()
	ts, id := numberedTasks(total)
	taken := make([]atomic.Int32, total)
	var pushed atomic.Int64
	var ownerDone atomic.Bool

	take := func(tk *task) {
		if tk == nil {
			return
		}
		if n := taken[id[tk]].Add(1); n != 1 {
			t.Errorf("task %d taken %d times", id[tk], n)
		}
	}

	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tk, contended := d.steal()
				if tk != nil {
					take(tk)
					continue
				}
				if !contended && ownerDone.Load() && d.top.Load() >= d.bottom.Load() {
					return
				}
				runtime.Gosched()
			}
		}()
	}

	// Owner: interleave bursts of pushes with bursts of pops so the bottom
	// end keeps reversing direction while thieves hammer the top.
	rng := rand.New(rand.NewSource(1))
	for int(pushed.Load()) < total {
		burst := 1 + rng.Intn(64)
		for i := 0; i < burst && int(pushed.Load()) < total; i++ {
			d.push(&ts[pushed.Load()])
			pushed.Add(1)
		}
		for i := rng.Intn(burst + 1); i > 0; i-- {
			tk := d.pop()
			if tk == nil {
				break
			}
			take(tk)
		}
	}
	// Drain whatever the thieves have not taken yet.
	for {
		tk := d.pop()
		if tk == nil {
			break
		}
		take(tk)
	}
	ownerDone.Store(true)
	wg.Wait()
	// The deque must now be empty and every task accounted for.
	for i := range taken {
		if got := taken[i].Load(); got != 1 {
			t.Fatalf("task %d taken %d times, want exactly 1", i, got)
		}
	}
}

// TestDequeGrowPreservesOrderAndContent pushes past several ring doublings
// with no concurrency and checks FIFO steal order survives every grow.
func TestDequeGrowPreservesOrderAndContent(t *testing.T) {
	d := newTestDeque()
	const n = dequeInitSize * 8
	ts, id := numberedTasks(n)
	for i := range ts {
		d.push(&ts[i])
	}
	for i := range ts {
		tk, _ := d.steal()
		if tk == nil {
			t.Fatalf("steal %d: empty", i)
		}
		if id[tk] != i {
			t.Fatalf("steal %d: got task %d (FIFO order broken)", i, id[tk])
		}
	}
	if tk, _ := d.steal(); tk != nil {
		t.Fatal("deque not empty after draining")
	}
}

// TestDequeLIFOPop checks the owner end is a stack.
func TestDequeLIFOPop(t *testing.T) {
	d := newTestDeque()
	ts, id := numberedTasks(100)
	for i := range ts {
		d.push(&ts[i])
	}
	for i := len(ts) - 1; i >= 0; i-- {
		tk := d.pop()
		if tk == nil || id[tk] != i {
			t.Fatalf("pop: got %v, want task %d", tk, i)
		}
	}
	if d.pop() != nil {
		t.Fatal("pop on empty deque returned a task")
	}
}

// TestPoolTasksRunExactlyOnce is the pool-level exactly-once check: every
// forked body runs once, and the executed counter agrees (forks + one root
// per Run).
func TestPoolTasksRunExactlyOnce(t *testing.T) {
	const forks = 5000
	for _, layout := range []Layout{LayoutPadded, LayoutCompact} {
		pool := NewPoolLayout(8, layout)
		t.Cleanup(pool.Close)
		runs := make([]atomic.Int32, forks)
		pool.Run(func(c *Ctx) {
			hs := make([]Handle, forks)
			for i := range hs {
				i := i
				hs[i] = c.Fork(func(*Ctx) { runs[i].Add(1) })
			}
			for _, h := range hs {
				c.Join(h)
			}
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("layout=%v: fork %d ran %d times", layout, i, got)
			}
		}
		if got := pool.Executed(); got != forks+1 {
			t.Errorf("layout=%v: Executed() = %d, want %d", layout, got, forks+1)
		}
	}
}
