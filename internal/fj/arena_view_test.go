package fj

// Tests for the arena-backed view discipline on the real backend: live views
// never alias a recycled slab, Free of a view the arena does not own is a
// silent no-op, Alloc re-zeroes recycled slabs, and (under the race build,
// where arena.Poisoning is compiled in) a stale Raw() slice reads the loud
// poison pattern instead of silently aliasing the next allocation.

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/rt"
)

// span is the address range of a view's full backing array (cap, not len —
// the whole class-sized slab is what a Put recycles).
type span struct{ lo, hi uintptr }

func i64Span(v I64) span {
	s := v.Raw()
	base := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{base, base + uintptr(cap(s))*unsafe.Sizeof(int64(0))}
}

func (a span) overlaps(b span) bool { return a.lo < b.hi && b.lo < a.hi }

// TestArenaNoLiveAliasing drives a seeded random alloc/free sequence through
// one worker's shard and checks, at every allocation, that the slab handed
// out (fresh or recycled) does not overlap the backing of any still-live
// view.  This is the property the ar-tag plumbing exists for: only original
// arena allocations are ever recycled, so a recycled slab can only come from
// a view the kernel already declared dead.
func TestArenaNoLiveAliasing(t *testing.T) {
	pool := rt.NewPool(1, rt.Random)
	t.Cleanup(pool.Close)
	RunReal(pool, func(c *Ctx) {
		rng := rand.New(rand.NewSource(0xA11A5))
		type live struct {
			v  I64
			sp span
		}
		var lives []live
		for op := 0; op < 4000; op++ {
			if len(lives) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(lives))
				c.FreeI64(lives[i].v)
				lives[i] = lives[len(lives)-1]
				lives = lives[:len(lives)-1]
				continue
			}
			n := int64(1 + rng.Intn(5000))
			var v I64
			if rng.Intn(2) == 0 {
				v = c.AllocI64(n)
			} else {
				v = c.ScratchI64(n)
			}
			sp := i64Span(v)
			for _, l := range lives {
				if sp.overlaps(l.sp) {
					t.Errorf("op %d: new %d-element slab [%#x,%#x) aliases live view [%#x,%#x)",
						op, n, sp.lo, sp.hi, l.sp.lo, l.sp.hi)
				}
			}
			lives = append(lives, live{v, sp})
		}
		for _, l := range lives {
			c.FreeI64(l.v)
		}
	})
}

// TestFreeNonArenaViewsNoOp checks that FreeI64 on views the arena does not
// own — WrapI64 wrappings (even with an exact class-sized cap, the dangerous
// case), Env allocations, and Slice sub-views of an arena view — never
// reaches the pool, while the original arena view still does.
func TestFreeNonArenaViewsNoOp(t *testing.T) {
	pool := rt.NewPool(1, rt.Random)
	t.Cleanup(pool.Close)
	RunReal(pool, func(c *Ctx) {
		sh := c.rc.Scratch()
		backing := []int64{1, 2, 3, 4, 5, 6, 7, 8} // cap 8 == a class size
		w := WrapI64(backing)
		e := NewRealEnv().I64(16)
		a := c.AllocI64(16)
		sub := a.Slice(2, 10)

		puts := sh.I64.Puts
		c.FreeI64(w)
		c.FreeI64(e)
		c.FreeI64(sub)
		if sh.I64.Puts != puts {
			t.Errorf("freeing non-arena views reached the pool: Puts %d -> %d", puts, sh.I64.Puts)
		}
		c.FreeI64(a)
		if sh.I64.Puts != puts+1 {
			t.Errorf("freeing the original arena view missed the pool: Puts %d -> %d", puts, sh.I64.Puts)
		}
		if !arena.Poisoning {
			for i, v := range backing {
				if v != int64(i+1) {
					t.Errorf("wrapped backing[%d] = %d after no-op frees, want %d", i, v, i+1)
				}
			}
		}
	})
}

// TestAllocZeroesRecycledSlab dirties a slab, frees it, and checks that the
// LIFO-recycled slab AllocI64 hands back is fully zeroed (ScratchI64 makes no
// such promise, which is the whole point of having both).
func TestAllocZeroesRecycledSlab(t *testing.T) {
	pool := rt.NewPool(1, rt.Random)
	t.Cleanup(pool.Close)
	RunReal(pool, func(c *Ctx) {
		v := c.ScratchI64(128)
		raw := v.Raw()
		for i := range raw {
			raw[i] = -1
		}
		c.FreeI64(v)
		v2 := c.AllocI64(128)
		if unsafe.SliceData(v2.Raw()) != unsafe.SliceData(raw) {
			t.Errorf("expected LIFO reuse of the just-freed slab on a 1-worker pool")
		}
		for i := int64(0); i < 128; i++ {
			if got := v2.Load(i); got != 0 {
				t.Errorf("recycled AllocI64 slab word %d = %d, want 0", i, got)
				break
			}
		}
		c.FreeI64(v2)
	})
}

// TestFreedScratchServesEveryType: the shard keeps one pool of word slabs,
// so a freed n-element complex128 scratch is the very slab a following
// 2n-word int64 scratch gets back (LIFO, on one worker), and an empty
// scratch of either type is still a real (non-nil) view.
func TestFreedScratchServesEveryType(t *testing.T) {
	pool := rt.NewPool(1, rt.Random)
	t.Cleanup(pool.Close)
	RunReal(pool, func(c *Ctx) {
		for _, n := range []int64{4, 100, 512} {
			vc := c.ScratchC128(n)
			base := unsafe.Pointer(unsafe.SliceData(vc.Raw()))
			c.FreeC128(vc)
			vi := c.ScratchI64(2 * n)
			if got := unsafe.Pointer(unsafe.SliceData(vi.Raw())); got != base {
				t.Errorf("n=%d: ScratchI64(2n) after FreeC128 got %p, want the freed slab %p", n, got, base)
			}
			c.FreeI64(vi)
		}
		zi, zc := c.ScratchI64(0), c.ScratchC128(0)
		if zi.Raw() == nil || zc.Raw() == nil || zi.Len() != 0 || zc.Len() != 0 {
			t.Errorf("empty scratch: int64 raw nil=%v len %d, complex128 raw nil=%v len %d; want real empty views",
				zi.Raw() == nil, zi.Len(), zc.Raw() == nil, zc.Len())
		}
		c.FreeI64(zi)
		c.FreeC128(zc)
	})
}

// TestStolenC128ScratchStaysBounded is rt's TestStolenScratchStaysBounded
// through fj, at complex128: every round runs on one worker (the victim),
// whose Parallel's forked half, run by the other worker (the thief) while
// the inline half waits for it to start, takes complex128 scratch; the
// victim frees it once the Parallel returns.  So every round moves word
// slabs from the thief's shard to the victim's, and the two shards and
// their spill must hold no more than arena.MaxSlabs(2) slabs of the class,
// however many rounds run.
func TestStolenC128ScratchStaysBounded(t *testing.T) {
	const (
		rounds = 1000
		slabs  = 8
		elems  = 512 // 1024 words: exactly one size class
	)
	pool := rt.NewPool(2, rt.Random)
	t.Cleanup(pool.Close)
	var victim, thief *arena.Shard
	wrong := 0 // halves that ran on the wrong worker
	round := func(c *Ctx) {
		if c.rc.Scratch() != victim {
			wrong++
		}
		var got [slabs]C128
		onThief(c, func(c *Ctx) {
			if thief = c.rc.Scratch(); thief == victim {
				wrong++
			}
			for i := range got {
				got[i] = c.ScratchC128(elems)
			}
		})
		for _, v := range got {
			c.FreeC128(v)
		}
	}
	for r := 0; r < rounds; r++ {
		RunReal(pool, func(c *Ctx) {
			if victim == nil {
				victim = c.rc.Scratch()
			}
			if c.rc.Scratch() == victim {
				round(c)
				return
			}
			// The root landed on the thief: hand the round to the victim.
			onThief(c, round)
		})
	}
	if wrong != 0 {
		t.Fatalf("%d halves ran on the wrong worker", wrong)
	}
	held := victim.Spilled() + victim.Held() + thief.Held()
	if bound := arena.MaxSlabs(2) * 2 * elems * 8; held > bound {
		t.Fatalf("shards and spill hold %d bytes after %d rounds, want <= %d", held, rounds, bound)
	}
}

// onThief runs f as the forked half of a Parallel whose inline half waits
// until f has started, so on a 2-worker pool the other worker runs it.
func onThief(c *Ctx, f func(*Ctx)) {
	var started atomic.Bool
	c.Parallel(func(*Ctx) {
		for deadline := time.Now().Add(10 * time.Second); !started.Load(); runtime.Gosched() {
			if time.Now().After(deadline) {
				panic("no thief took the forked half")
			}
		}
	}, func(c *Ctx) {
		started.Store(true)
		f(c)
	})
}

// TestPoisonOnFree checks that, with arena.Poisoning compiled in (the race
// build), a stale Raw() slice held across a Free reads the loud per-type
// poison pattern — a use-after-free shows up as recognizable garbage, never
// as a silent alias of live data.
func TestPoisonOnFree(t *testing.T) {
	if !arena.Poisoning {
		t.Skip("poisoning is compiled in only under the race build tag")
	}
	pool := rt.NewPool(1, rt.Random)
	t.Cleanup(pool.Close)
	RunReal(pool, func(c *Ctx) {
		vi := c.AllocI64(64)
		ri := vi.Raw()
		for i := range ri {
			ri[i] = int64(i)
		}
		c.FreeI64(vi)
		for i, got := range ri {
			if got != arena.PoisonI64 {
				t.Errorf("stale int64 slab word %d = %#x after free, want poison %#x", i, got, arena.PoisonI64)
				break
			}
		}

		vc := c.ScratchC128(64)
		rc := vc.Raw()
		for i := range rc {
			rc[i] = complex(float64(i), 1)
		}
		c.FreeC128(vc)
		for i, got := range rc {
			if !math.IsNaN(real(got)) || !math.IsNaN(imag(got)) {
				t.Errorf("stale complex128 slab word %d = %v after free, want NaN poison", i, got)
				break
			}
		}
	})
}
