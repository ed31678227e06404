package rt

// Layout tests: the padded layout must actually put every contended word on
// its own cache line (the whole point of §4.7 applied to the runtime's own
// state), and the compact layout must actually pack — otherwise EXP13's
// ablation would compare a padded runtime against itself.

import (
	"testing"
	"unsafe"
)

func cellAddr(c *cells, which int) uintptr {
	switch which {
	case cellTop:
		return uintptr(unsafe.Pointer(c.top))
	case cellBottom:
		return uintptr(unsafe.Pointer(c.bottom))
	case cellSteals:
		return uintptr(unsafe.Pointer(c.steals))
	case cellAttempts:
		return uintptr(unsafe.Pointer(c.attempts))
	default:
		return uintptr(unsafe.Pointer(c.executed))
	}
}

func TestPaddedLayoutAlignment(t *testing.T) {
	const p = 4
	pool := NewPool(p, Random)
	t.Cleanup(pool.Close)
	if pool.Layout() != LayoutPadded {
		t.Fatalf("NewPool layout = %v, want padded", pool.Layout())
	}
	for i, w := range pool.workers {
		top := cellAddr(&w.st, cellTop)
		bottom := cellAddr(&w.st, cellBottom)
		counters := cellAddr(&w.st, cellSteals)
		if top%cacheLine != 0 {
			t.Errorf("worker %d: top cell at %#x not cache-line aligned", i, top)
		}
		if bottom-top != cacheLine {
			t.Errorf("worker %d: bottom is %d bytes from top, want a private line (%d)", i, bottom-top, cacheLine)
		}
		if counters-top != 2*cacheLine {
			t.Errorf("worker %d: counters are %d bytes from top, want their own line (%d)", i, counters-top, 2*cacheLine)
		}
		if i > 0 {
			prev := cellAddr(&pool.workers[i-1].st, cellTop)
			if top-prev < 3*cacheLine {
				t.Errorf("workers %d/%d state blocks only %d bytes apart, want ≥ %d", i-1, i, top-prev, 3*cacheLine)
			}
		}
	}
}

func TestCompactLayoutPacks(t *testing.T) {
	const p = 4
	pool := NewPoolLayout(p, LayoutCompact)
	t.Cleanup(pool.Close)
	for i, w := range pool.workers {
		top := cellAddr(&w.st, cellTop)
		if cellAddr(&w.st, cellBottom)-top != 8 {
			t.Errorf("worker %d: compact cells not adjacent", i)
		}
		if i > 0 {
			prev := cellAddr(&pool.workers[i-1].st, cellTop)
			if top-prev != numCells*8 {
				t.Errorf("workers %d/%d compact blocks %d bytes apart, want %d", i-1, i, top-prev, numCells*8)
			}
		}
	}
	// With a 64B-aligned base and 40B worker blocks, adjacent workers are
	// guaranteed to share a cache line — the sharing EXP13 measures.
	w0 := cellAddr(&pool.workers[0].st, cellExecuted)
	w1 := cellAddr(&pool.workers[1].st, cellTop)
	if w0/cacheLine != w1/cacheLine {
		t.Errorf("compact layout: worker 0 counters (line %#x) and worker 1 top (line %#x) do not share a line",
			w0/cacheLine, w1/cacheLine)
	}
}

func TestTaskFramePadding(t *testing.T) {
	if s := unsafe.Sizeof(task{}); s > cacheLine {
		t.Fatalf("task frame is %d bytes, larger than a cache line", s)
	}
	if taskSize != unsafe.Sizeof(task{}) {
		t.Fatalf("taskFootprint size %d != task size %d; keep the mirror struct in sync", taskSize, unsafe.Sizeof(task{}))
	}
	if s := unsafe.Sizeof(paddedTask{}); s%cacheLine != 0 {
		t.Errorf("paddedTask is %d bytes, want a multiple of %d", s, cacheLine)
	}
	if a := unsafe.Alignof(paddedTask{}); cacheLine%a != 0 {
		t.Errorf("paddedTask alignment %d does not divide the cache line", a)
	}
	// The padded frame stride must keep consecutive frames line-disjoint
	// for ANY 8-aligned slab base (Go guarantees no more): the worst base
	// offset needs stride ≥ cacheLine + (taskSize rounded up), and the
	// struct uses two full lines.  Compact arenas pack at the raw size.
	if s := unsafe.Sizeof(paddedTask{}); s < cacheLine+taskSize {
		t.Errorf("paddedTask stride %d cannot keep frames line-disjoint on a misaligned slab (need ≥ %d)",
			s, cacheLine+taskSize)
	}
	var ar taskArena
	ar.padded = true
	t0 := ar.alloc(nil)
	t1 := ar.alloc(nil)
	if d := uintptr(unsafe.Pointer(t1)) - uintptr(unsafe.Pointer(t0)); d != unsafe.Sizeof(paddedTask{}) {
		t.Errorf("padded arena stride %d, want %d", d, unsafe.Sizeof(paddedTask{}))
	}
	var ac taskArena
	c0 := ac.alloc(nil)
	c1 := ac.alloc(nil)
	if d := uintptr(unsafe.Pointer(c1)) - uintptr(unsafe.Pointer(c0)); d != unsafe.Sizeof(task{}) {
		t.Errorf("compact arena stride %d, want %d", d, unsafe.Sizeof(task{}))
	}
}

// TestCompactPoolStillCorrect re-runs the correctness workload under the
// compact layout — the ablation arm must differ only in speed, never in
// results.
func TestCompactPoolStillCorrect(t *testing.T) {
	n := 1 << 15
	want := int64(n) * int64(n-1) / 2
	for _, p := range []int{1, 2, 4, 8} {
		pool := NewPoolLayout(p, LayoutCompact)
		t.Cleanup(pool.Close)
		var got int64
		pool.Run(func(c *Ctx) {
			got = forkSum(c, 0, n, 256, func(i int) int64 { return int64(i) })
		})
		if got != want {
			t.Errorf("compact p=%d: sum = %d, want %d", p, got, want)
		}
	}
}
