// Package arena gives the real backend the scratch-space discipline the
// simulator already has through mem.Space: size-class free lists of typed
// slabs, owned one shard per rt worker, so a kernel's whole recursion reuses
// one footprint instead of paying the Go allocator and GC on every recursive
// Alloc call.
//
// A Pool[T] keeps power-of-two size classes of recycled slabs.  Get rounds
// the request up to its class, pops the most recently released slab (LIFO —
// the slab still hot in cache from the scope that just released it), and
// returns it trimmed to the requested length; Put validates that the slab's
// capacity is exactly a class size (anything else — a sub-slice, foreign
// caller memory — is dropped, never recycled) and pushes it back.  Slabs of
// word-sized elements are carved cache-line-aligned by over-allocating one
// line and re-slicing, the same §4.7 block discipline the paper applies to
// scheduler state: two scratch regions handed to two workers never meet in
// one coherence line.  The GC stays safe because the alignment trim is an
// ordinary three-index slice expression, not a rebased pointer.
//
// A Shard bundles the three element-typed pools a fork-join kernel draws
// from (int64, float64, complex128) plus an Aux extension slot for
// client-owned state (internal/fj parks its per-worker Ctx there).  Shards
// are strictly owner-only: every field is plain (no atomics to contend on,
// which is what makes the layout falseshare-clean by construction), and the
// runtime hands each worker its own separately allocated shard, so no two
// workers' free lists ever share a cache line.
//
// Free lists are bounded.  Slabs move between workers — a stolen task
// releases to its thief's shard what its parent's worker will allocate
// again — so an unbounded list would grow on one shard while another keeps
// allocating.  A shard keeps at most localCap slabs per size class; a Put
// beyond that goes to the spill the shards of one group share (NewShards,
// Attach), behind a mutex, and a Get that finds its own list empty takes
// from the spill before it makes a slab.  The spill holds at most spillCap
// slabs per class; past that a Put drops the slab to the GC and counts it in
// Drops.  So a group of p shards retains at most p·localCap + spillCap slabs
// of any one class.  The owner's Get and Put touch the mutex only on a miss
// and on an overflow.
//
// Release is explicit, not scoped: rt workers help-run unrelated stolen
// tasks inside Join, so a region-style bulk rewind at fork-join scope exit
// could reclaim an allocation a helped task is still using.  Callers return
// exactly the slabs they got (internal/fj tags its views so only original
// arena allocations are ever returned).  Under the race detector every
// released slab is poison-filled (see Poisoning), so a use-after-free
// through a stale view reads garbage loudly instead of aliasing silently.
package arena

import (
	"sync"
	"unsafe"
)

// cacheLine is the coherence granularity alignment targets — the real
// hardware analogue of the paper's block size B.
const cacheLine = 64

// minClass is the smallest slab capacity, in elements.
const minClass = 8

// numClasses bounds the largest pooled slab at minClass<<(numClasses-1)
// elements (8·2²³ = 64M elements; larger requests fall through to plain
// makes and are never recycled).
const numClasses = 24

// classFor returns the smallest class whose capacity holds n elements, or
// numClasses when n exceeds every class.
func classFor(n int64) int {
	c := 0
	for c < numClasses && classCap(c) < n {
		c++
	}
	return c
}

// classCap returns the element capacity of class c.
func classCap(c int) int64 { return minClass << c }

// classOf returns the class whose capacity is exactly n, if any.
func classOf(n int64) (int, bool) {
	if n < minClass || n&(n-1) != 0 {
		return 0, false
	}
	c := classFor(n)
	if c >= numClasses || classCap(c) != n {
		return 0, false
	}
	return c, true
}

// localCap is the most slabs a shard keeps per size class.  Strassen holds
// the most scratch of any kernel: 26 slabs of one class live per recursion
// level (8 quadrants, 10 operand sums, 7 products and a combine), and a
// worker helping inside a Join may hold a second task's on top.  32 keeps
// one level's whole set, so a worker that runs its own tasks never reaches
// the spill.
const localCap = 32

// spillCap is the most slabs a spill keeps per size class: two workers'
// worth of overflow, enough for a stolen subtree's slabs to come back to the
// thief's parent and go out again without a make.  A group of p shards thus
// retains at most 32p + 64 slabs of a class: for the 128 KiB slabs of
// strassen's side-256 top level, 4 MiB per worker plus 8 MiB of spill.
const spillCap = 64

// MaxSlabs reports the most slabs of one size class a group of n shards
// retains, on their own lists and in the spill together.
func MaxSlabs(n int) int64 { return int64(n*localCap + spillCap) }

// Pool is a size-class free list of []T slabs.  The zero value is ready to
// use and has no spill: a Put past localCap drops.  Pools are not safe for
// concurrent use; a shard's owner is the only goroutine that may touch one,
// and only the spill behind it is shared.
type Pool[T any] struct {
	free  lists[T]
	spill *spill[T]

	// Poison is the value released slabs are filled with when Poisoning is
	// on (zero by default; shards install a loud per-type pattern).
	Poison T

	// Owner-only counters, exported for tests and the arena on/off
	// comparison protocol: Gets counts reuse hits (from the shard's own
	// list or the spill), Misses fresh slab makes, Puts accepted releases
	// (kept or spilled), Drops rejected ones (a foreign capacity, or a full
	// spill).
	Gets, Misses, Puts, Drops int64
}

// Get returns a slab of exactly n elements with unspecified contents:
// recycled when the class has a free slab here or in the spill, freshly
// allocated otherwise.  The result's capacity is the full class, so it
// survives a round trip through Put.
func (p *Pool[T]) Get(n int64) []T {
	if n <= 0 {
		return make([]T, 0)
	}
	c := classFor(n)
	if c >= numClasses {
		p.Misses++
		return make([]T, n)
	}
	s := p.free.pop(c)
	if s == nil {
		s = p.spill.take(c)
	}
	if s != nil {
		p.Gets++
		return s[:n]
	}
	p.Misses++
	return newSlab[T](c)[:n]
}

// Put releases a slab obtained from Get back to its class: onto the shard's
// own list below localCap, to the spill above it.  Slices whose capacity is
// not exactly a class size (sub-slices, foreign memory, over-class makes)
// are dropped: recycling them would hand one backing array to two owners.
func (p *Pool[T]) Put(s []T) {
	c, ok := classOf(int64(cap(s)))
	if !ok {
		p.Drops++
		return
	}
	full := s[:cap(s)]
	if Poisoning {
		for i := range full {
			full[i] = p.Poison
		}
	}
	if !p.free.push(c, full, localCap) && !p.spill.give(c, full) {
		p.Drops++
		return
	}
	p.Puts++
}

// Held reports the bytes of the slabs on the pool's own free lists.
func (p *Pool[T]) Held() int64 { return p.free.bytes() }

// lists holds one LIFO list of free slabs per size class.
type lists[T any] [numClasses][][]T

// pop removes and returns the most recently pushed class-c slab, or nil.
func (l *lists[T]) pop(c int) []T {
	list := l[c]
	if len(list) == 0 {
		return nil
	}
	s := list[len(list)-1]
	list[len(list)-1] = nil
	l[c] = list[:len(list)-1]
	return s
}

// push adds a class-c slab unless the class already holds limit slabs,
// and reports whether it did.
func (l *lists[T]) push(c int, s []T, limit int) bool {
	if len(l[c]) >= limit {
		return false
	}
	l[c] = append(l[c], s)
	return true
}

// bytes reports the bytes of every slab on the lists.
func (l *lists[T]) bytes() int64 {
	var n int64
	for c := range l {
		n += int64(len(l[c])) * classCap(c)
	}
	var zero T
	return n * int64(unsafe.Sizeof(zero))
}

// spill is the overflow free list the pools of one element type in one
// shard group share.  Every access holds mu.
type spill[T any] struct {
	mu   sync.Mutex
	free lists[T]
}

// take pops a class-c slab, or returns nil (always, for a nil spill).
func (sp *spill[T]) take(c int) []T {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.free.pop(c)
}

// give pushes a class-c slab and reports whether there was room.
func (sp *spill[T]) give(c int, s []T) bool {
	if sp == nil {
		return false
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.free.push(c, s, spillCap)
}

// held reports the bytes of the slabs in the spill.
func (sp *spill[T]) held() int64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.free.bytes()
}

// newSlab allocates one class-c slab.  When the element size divides the
// cache line the base is aligned to a line boundary by over-allocating one
// line and trimming with a three-index slice (GC-safe: no pointer rebasing),
// so distinct slabs never share a coherence line.
func newSlab[T any](c int) []T {
	n := classCap(c)
	var zero T
	esz := int64(unsafe.Sizeof(zero))
	if esz == 0 || cacheLine%esz != 0 {
		return make([]T, n)
	}
	pad := cacheLine / esz
	raw := make([]T, n+pad)
	off := int64(0)
	if rem := int64(uintptr(unsafe.Pointer(&raw[0])) % cacheLine); rem != 0 {
		// The base of a []T is aligned to the element size, so the gap to
		// the next line boundary is a whole number of elements.
		off = (cacheLine - rem) / esz
	}
	return raw[off : off+n : off+n]
}

// Shard is one worker's scratch arena: the three element-typed pools the
// fork-join kernels allocate from, plus an extension slot.  All fields are
// plain and owner-only — the falseshare discipline by construction, not by
// annotation — and each shard is its own heap allocation, so two workers'
// hot free-list heads never share a cache line.  The spills behind the
// pools belong to the shard's group.
type Shard struct {
	I64  Pool[int64]
	F64  Pool[float64]
	C128 Pool[complex128]

	// Aux lets a client layer (internal/fj) hang its own per-worker state
	// off the shard without this package knowing its type.  Owner-only,
	// like everything else here.
	Aux any

	g *group

	// Tail pad: whatever the allocator places after this shard cannot
	// share the shard's last line.
	_ [cacheLine]byte
}

// group is what the shards of one NewShards call share: one spill per
// element type attached so far.
type group struct {
	mu     sync.Mutex
	spills []spiller
}

// spiller is a *spill[T] of any element type.
type spiller interface{ held() int64 }

// Poison patterns for released slabs under the race detector: loud,
// recognizable values no kernel computes (PoisonI64 spells out as repeated
// 0x5CA7 — "scat" — and the float poisons are NaN, which propagates).
const PoisonI64 = int64(0x5CA75CA75CA75CA7)

// NewShards returns n ready shards that share one spill per element type,
// with the per-type poison patterns installed: one per worker of a pool.
func NewShards(n int) []*Shard {
	g := &group{}
	nan := poisonNaN()
	shards := make([]*Shard, n)
	for i := range shards {
		s := &Shard{g: g}
		Attach(s, &s.I64)
		Attach(s, &s.F64)
		Attach(s, &s.C128)
		s.I64.Poison = PoisonI64
		s.F64.Poison = nan
		s.C128.Poison = complex(nan, nan)
		shards[i] = s
	}
	return shards
}

// NewShard returns a ready shard with a spill of its own.
func NewShard() *Shard { return NewShards(1)[0] }

// Attach gives p the spill its shard's group keeps for element type T, so a
// client pool hung off Aux is bounded like the shard's own.
func Attach[T any](sh *Shard, p *Pool[T]) {
	g := sh.g
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range g.spills {
		if sp, ok := s.(*spill[T]); ok {
			p.spill = sp
			return
		}
	}
	p.spill = &spill[T]{}
	g.spills = append(g.spills, p.spill)
}

// Held reports the bytes of the slabs on the shard's three pools' own free
// lists.
func (s *Shard) Held() int64 { return s.I64.Held() + s.F64.Held() + s.C128.Held() }

// Spilled reports the bytes of the slabs in the spills of the shard's
// group, every element type attached.
func (s *Shard) Spilled() int64 {
	s.g.mu.Lock()
	defer s.g.mu.Unlock()
	var n int64
	for _, sp := range s.g.spills {
		n += sp.held()
	}
	return n
}

// poisonNaN builds a quiet NaN without math.NaN (keeping the package
// dependency-free of even math).
func poisonNaN() float64 {
	bits := uint64(0x7FF8_5CA7_5CA7_5CA7)
	return *(*float64)(unsafe.Pointer(&bits))
}
