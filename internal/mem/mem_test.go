package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocBlockAligned(t *testing.T) {
	sp := NewSpace(16)
	for _, n := range []int64{1, 15, 16, 17, 100} {
		base := sp.Alloc(n)
		if base%16 != 0 {
			t.Errorf("Alloc(%d) base %d not block aligned", n, base)
		}
	}
}

func TestAllocDisjointBlocks(t *testing.T) {
	// The paper's allocation property: distinct allocations never share a
	// block.
	sp := NewSpace(8)
	a := sp.Alloc(3)
	b := sp.Alloc(5)
	if sp.Block(a+2) == sp.Block(b) {
		t.Error("allocations share a block")
	}
}

func TestAllocQuickNoOverlap(t *testing.T) {
	f := func(sizes []uint8) bool {
		sp := NewSpace(16)
		type reg struct{ base, n int64 }
		var regs []reg
		for _, s := range sizes {
			n := int64(s%64) + 1
			regs = append(regs, reg{sp.Alloc(n), n})
		}
		for i := range regs {
			for j := i + 1; j < len(regs); j++ {
				a, b := regs[i], regs[j]
				if a.base < b.base+b.n && b.base < a.base+a.n {
					return false
				}
				// Block-disjointness too.
				if sp.Block(a.base+a.n-1) == sp.Block(b.base) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	sp := NewSpace(16)
	base := sp.Alloc(1000)
	for i := int64(0); i < 1000; i += 37 {
		sp.Store(base+i, i*i)
	}
	for i := int64(0); i < 1000; i += 37 {
		if got := sp.Load(base + i); got != i*i {
			t.Fatalf("Load(%d) = %d, want %d", i, got, i*i)
		}
	}
}

func TestUntouchedMemoryReadsZero(t *testing.T) {
	sp := NewSpace(16)
	base := sp.Alloc(1 << 20) // crosses several lazy segments
	if got := sp.Load(base + (1 << 19)); got != 0 {
		t.Errorf("untouched word = %d, want 0", got)
	}
	if n := pages(sp); n != 0 {
		t.Errorf("reserving and loading materialised %d pages, want 0", n)
	}
}

// pages counts the materialised pages of sp.
func pages(sp *Space) int {
	n := 0
	for _, seg := range sp.segs {
		if seg != nil {
			n++
		}
	}
	return n
}

func TestPageBoundaryStoreLoad(t *testing.T) {
	sp := NewSpace(16)
	a, b := sp.Alloc(4096), sp.Alloc(2*4096)
	if b != a+4096 {
		t.Fatalf("second allocation at %d, want %d", b, a+4096)
	}
	// a's last word and b's first lie on either side of a 32 KiB page
	// boundary; b's second page is never stored to.
	stored := map[Addr]int64{a + 4095: -1, b: -2, b + 1: -3}
	for w, v := range stored {
		sp.Store(w, v)
	}
	for _, w := range []Addr{a + 4094, a + 4095, b, b + 1, b + 2, b + 2*4096 - 1} {
		if got := sp.Load(w); got != stored[w] {
			t.Errorf("Load(%d) = %d, want %d", w, got, stored[w])
		}
	}
	if n := pages(sp); n != 2 {
		t.Errorf("%d pages materialised, want 2", n)
	}
}

// TestReleaseZeroes releases a space into the middle of a page and of a
// later page: what is below the mark stays, and what the next allocations
// get reads zero, on the page the mark splits and on the pages after.
func TestReleaseZeroes(t *testing.T) {
	sp := NewSpace(8)
	keep := sp.Alloc(100)
	mark := sp.Size()
	scratch := sp.Alloc(3 * segSize)
	for a := keep; a < scratch+3*segSize; a++ {
		sp.Store(a, a+1)
	}
	sp.Release(mark)
	if sp.Size() != mark {
		t.Fatalf("size %d after release, want %d", sp.Size(), mark)
	}
	for a := keep; a < mark; a++ {
		if sp.Load(a) != a+1 {
			t.Fatalf("word %d below the mark lost its value", a)
		}
	}
	again := sp.Alloc(3 * segSize)
	if again != scratch {
		t.Fatalf("reallocated at %d, want %d", again, scratch)
	}
	for a := again; a < again+3*segSize; a++ {
		if v := sp.Load(a); v != 0 {
			t.Fatalf("released word %d reads %d, want 0", a, v)
		}
	}
}

func TestFloatRoundTrip(t *testing.T) {
	sp := NewSpace(16)
	a := sp.Alloc(4)
	for _, v := range []float64{0, 1.5, -3.25e10, 1e-300} {
		sp.StoreF(a, v)
		if got := sp.LoadF(a); got != v {
			t.Errorf("float round trip: %g != %g", got, v)
		}
	}
}

func TestArrayBounds(t *testing.T) {
	sp := NewSpace(16)
	a := NewArray(sp, 10)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range index")
		}
	}()
	a.Addr(10)
}

func TestArraySliceAliases(t *testing.T) {
	sp := NewSpace(16)
	a := NewArray(sp, 20)
	a.Fill(7)
	s := a.Slice(5, 10)
	s.Set(0, 99)
	if a.Get(5) != 99 {
		t.Error("slice does not alias parent")
	}
	if s.Len() != 5 {
		t.Errorf("slice len = %d", s.Len())
	}
}

func TestCArray(t *testing.T) {
	sp := NewSpace(16)
	ca := NewCArray(sp, 5)
	want := []complex128{1 + 2i, -3, 0, 5i, 2.5 - 2.5i}
	ca.CopyIn(want)
	got := ca.CopyOut()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: %v != %v", i, got[i], want[i])
		}
	}
	if ca.ImAddr(2)-ca.ReAddr(2) != 1 {
		t.Error("re/im words not adjacent")
	}
}

func TestNewSpaceRejectsBadBlock(t *testing.T) {
	for _, b := range []int{0, -4, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpace(%d) should panic", b)
				}
			}()
			NewSpace(b)
		}()
	}
}
