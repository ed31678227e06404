package fj

// Tests for the arena-backed view discipline on the real backend: live views
// never alias a recycled slab, Free of a view the arena does not own is a
// silent no-op, Alloc re-zeroes recycled slabs, and (under the race build,
// where arena.Poisoning is compiled in) a stale Raw() slice reads the loud
// poison pattern instead of silently aliasing the next allocation.

import (
	"math"
	"math/rand"
	"testing"
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
