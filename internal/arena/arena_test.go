package arena

import (
	"math"
	"testing"
	"unsafe"
)

func TestClassRounding(t *testing.T) {
	cases := []struct {
		n    int64
		want int64 // capacity Get must return
	}{
		{1, minClass}, {minClass, minClass}, {minClass + 1, 2 * minClass},
		{100, 128}, {128, 128}, {129, 256}, {1 << 17, 1 << 17}, {(1 << 17) + 1, 1 << 18},
	}
	var p Pool
	for _, c := range cases {
		s := p.Get(c.n)
		if int64(len(s)) != c.n || int64(cap(s)) != c.want {
			t.Errorf("Get(%d): len=%d cap=%d, want len=%d cap=%d", c.n, len(s), cap(s), c.n, c.want)
		}
	}
}

func TestLIFOReuse(t *testing.T) {
	var p Pool
	a := p.Get(100)
	b := p.Get(100)
	if &a[0] == &b[0] {
		t.Fatal("two live slabs share a backing array")
	}
	p.Put(a)
	p.Put(b)
	// LIFO: the most recently released slab (b) comes back first, then a.
	c := p.Get(100)
	d := p.Get(128) // same class as 100
	if &c[0] != &b[0] {
		t.Errorf("first reuse returned %p, want the last-released slab %p", &c[0], &b[0])
	}
	if &d[0] != &a[0] {
		t.Errorf("second reuse returned %p, want the first-released slab %p", &d[0], &a[0])
	}
	if p.Gets != 2 || p.Misses != 2 || p.Puts != 2 {
		t.Errorf("counters gets=%d misses=%d puts=%d, want 2/2/2", p.Gets, p.Misses, p.Puts)
	}
}

func TestPutRejectsForeignCaps(t *testing.T) {
	var p Pool
	s := p.Get(64)
	p.Put(s[:10:10]) // sub-slice with a non-class cap
	p.Put(make([]int64, 100))
	p.Put(make([]int64, 3))
	p.Put(nil)
	if p.Puts != 0 || p.Drops != 4 {
		t.Fatalf("puts=%d drops=%d, want 0 accepted, 4 dropped", p.Puts, p.Drops)
	}
	r := p.Get(64)
	if &r[0] == &s[0] {
		t.Fatal("a rejected Put still entered the free list")
	}
}

func TestAlignment(t *testing.T) {
	var p Pool
	for _, n := range []int64{1, 8, 64, 1000, 1 << 15} {
		if s := p.Get(n); uintptr(unsafe.Pointer(&s[0]))%cacheLine != 0 {
			t.Errorf("slab of %d words not cache-line aligned: %p", n, &s[0])
		}
	}
}

func TestOversizeRequestsBypassPool(t *testing.T) {
	var p Pool
	huge := classCap(numClasses-1) + 1
	s := p.Get(huge)
	if int64(len(s)) != huge {
		t.Fatalf("oversize Get len = %d, want %d", len(s), huge)
	}
	p.Put(s)
	if p.Puts != 0 || p.Drops != 1 {
		t.Errorf("oversize slab entered the free list (puts=%d drops=%d)", p.Puts, p.Drops)
	}
}

func TestZeroLengthGet(t *testing.T) {
	var p Pool
	if s := p.Get(0); s == nil || len(s) != 0 {
		t.Fatalf("Get(0) = %v (nil=%v), want a non-nil empty slice", s, s == nil)
	}
}

// TestPoisonFill pins the release semantics in both build modes: under the
// race detector a released slab is filled with PoisonI64, and outside it the
// contents are left as-is (the fill must not tax the steady state the arena
// exists to remove).  The poison word reads as NaN to a float64 view of the
// slab, and so to either half of a complex128 one.
func TestPoisonFill(t *testing.T) {
	sh := NewShard()
	s := sh.I64.Get(64)
	for i := range s {
		s[i] = int64(i)
	}
	sh.I64.Put(s)
	full := s[:cap(s)]
	if Poisoning {
		for i, v := range full {
			if v != PoisonI64 {
				t.Fatalf("released slab [%d] = %#x, want poison %#x", i, v, uint64(PoisonI64))
			}
		}
	} else {
		for i := 0; i < 64; i++ {
			if full[i] != int64(i) {
				t.Fatalf("released slab [%d] = %d changed without poisoning enabled", i, full[i])
			}
		}
	}

	if f := math.Float64frombits(uint64(PoisonI64)); !math.IsNaN(f) {
		t.Fatalf("PoisonI64 read as a float64 is %v, want NaN", f)
	}
}

// TestSpillFeedsTheOtherShard: two shards share one spill; A only Gets and
// B only Puts, the flow stealing sets up between a thief and its victim.
// B's list stops at its cap and the overflow reaches A through the spill,
// so once the spill is stocked A makes no more slabs.
func TestSpillFeedsTheOtherShard(t *testing.T) {
	sh := NewShards(2)
	a, b := &sh[0].I64, &sh[1].I64
	const words = 64
	slab := classCap(classFor(words)) * 8
	var stocked int64
	for r := 0; r < 10000; r++ {
		b.Put(a.Get(words))
		if r == 2*localCap {
			stocked = a.Misses
		}
	}
	if a.Misses != stocked || a.Misses > localCap+1 {
		t.Errorf("A made %d slabs, %d of them once the spill was stocked; want at most %d, all before", a.Misses, a.Misses-stocked, localCap+1)
	}
	if got := b.Held(); got != localCap*slab {
		t.Errorf("B holds %d bytes, want its cap, %d", got, localCap*slab)
	}
	if b.Drops != 0 || b.Puts != 10000 {
		t.Errorf("B: %d puts, %d drops; want 10000 and 0", b.Puts, b.Drops)
	}

	// A burst past the spill's bound is dropped, not kept.
	burst := make([][]int64, 2*spillCap)
	for i := range burst {
		burst[i] = a.Get(words)
	}
	for _, s := range burst {
		b.Put(s)
	}
	if got := sh[0].Held() + sh[1].Held() + sh[0].Spilled(); got > MaxSlabs(2)*slab {
		t.Errorf("shards and spill hold %d bytes, want <= %d", got, MaxSlabs(2)*slab)
	}
	if got := sh[0].Spilled(); got != spillCap*slab {
		t.Errorf("spill holds %d bytes after the burst, want its cap, %d", got, spillCap*slab)
	}
	if b.Drops == 0 {
		t.Error("a Put past a full spill was not counted in Drops")
	}
}
