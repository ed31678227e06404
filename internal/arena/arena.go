// Package arena gives the real backend the scratch-space discipline the
// simulator already has through mem.Space: size-class free lists of word
// slabs, owned one shard per rt worker, so a kernel's whole recursion reuses
// one footprint instead of paying the Go allocator and GC on every recursive
// Alloc call.
//
// A Pool keeps power-of-two size classes of recycled []int64 slabs.  Words
// are the one unit: a client holding elements of any other word-sized type
// (internal/fj's float64 and complex128 views) draws their word image from
// the same pool, so one set of classes and one retention bound serve every
// element type.  Get rounds the request up to its class, pops the most
// recently released slab (LIFO — the slab still hot in cache from the scope
// that just released it), and returns it trimmed to the requested length;
// Put validates that the slab's capacity is exactly a class size (anything
// else — a sub-slice, foreign caller memory — is dropped, never recycled)
// and pushes it back.  Slabs are carved cache-line-aligned by
// over-allocating one line and re-slicing, the same §4.7 block discipline
// the paper applies to scheduler state: two scratch regions handed to two
// workers never meet in one coherence line.  The GC stays safe because the
// alignment trim is an ordinary three-index slice expression, not a rebased
// pointer.
//
// A Shard is one worker's pool plus an Aux extension slot for client-owned
// state (internal/fj parks its per-worker Ctx there).  Shards are strictly
// owner-only: every field is plain (no atomics to contend on, which is what
// makes the layout falseshare-clean by construction), and the runtime hands
// each worker its own separately allocated shard, so no two workers' free
// lists ever share a cache line.
//
// Free lists are bounded.  Slabs move between workers — a stolen task
// releases to its thief's shard what its parent's worker will allocate
// again — so an unbounded list would grow on one shard while another keeps
// allocating.  A shard keeps at most localCap slabs per size class; a Put
// beyond that goes to the spill the shards of one NewShards call share,
// behind a mutex, and a Get that finds its own list empty takes from the
// spill before it makes a slab.  The spill holds at most spillCap slabs per
// class; past that a Put drops the slab to the GC and counts it in Drops.
// So a group of p shards retains at most p·localCap + spillCap slabs of any
// one class.  The owner's Get and Put touch the mutex only on a miss and on
// an overflow.
//
// Release is explicit, not scoped: rt workers help-run unrelated stolen
// tasks inside Join, so a region-style bulk rewind at fork-join scope exit
// could reclaim an allocation a helped task is still using.  Callers return
// exactly the slabs they got (internal/fj tags its views so only original
// arena allocations are ever returned).  Under the race detector every
// released slab is filled with PoisonI64 (see Poisoning), so a
// use-after-free through a stale view reads garbage loudly instead of
// aliasing silently.
package arena

import (
	"sync"
	"unsafe"
)

// cacheLine is the coherence granularity alignment targets — the real
// hardware analogue of the paper's block size B.
const cacheLine = 64

// wordBytes is the size of one slab word.
const wordBytes = 8

// minClass is the smallest slab capacity, in words.
const minClass = 8

// numClasses bounds the largest pooled slab at minClass<<(numClasses-1)
// words (8·2²³ = 64M words; larger requests fall through to plain makes and
// are never recycled).
const numClasses = 24

// classFor returns the smallest class whose capacity holds n words, or
// numClasses when n exceeds every class.
func classFor(n int64) int {
	c := 0
	for c < numClasses && classCap(c) < n {
		c++
	}
	return c
}

// classCap returns the word capacity of class c.
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

// Pool is a size-class free list of []int64 slabs.  The zero value is ready
// to use and has no spill: a Put past localCap drops.  Pools are not safe
// for concurrent use; a shard's owner is the only goroutine that may touch
// one, and only the spill behind it is shared.
type Pool struct {
	free  lists
	spill *spill

	// Owner-only counters, exported for tests and the arena on/off
	// comparison protocol: Gets counts reuse hits (from the shard's own
	// list or the spill), Misses fresh slab makes, Puts accepted releases
	// (kept or spilled), Drops rejected ones (a foreign capacity, or a full
	// spill).
	Gets, Misses, Puts, Drops int64
}

// Get returns a slab of exactly n words with unspecified contents: recycled
// when the class has a free slab here or in the spill, freshly allocated
// otherwise.  The result's capacity is the full class, so it survives a
// round trip through Put.
func (p *Pool) Get(n int64) []int64 {
	if n <= 0 {
		return make([]int64, 0)
	}
	c := classFor(n)
	if c >= numClasses {
		p.Misses++
		return make([]int64, n)
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
	return newSlab(c)[:n]
}

// Put releases a slab obtained from Get back to its class: onto the shard's
// own list below localCap, to the spill above it.  Slices whose capacity is
// not exactly a class size (sub-slices, foreign memory, over-class makes)
// are dropped: recycling them would hand one backing array to two owners.
func (p *Pool) Put(s []int64) {
	c, ok := classOf(int64(cap(s)))
	if !ok {
		p.Drops++
		return
	}
	full := s[:cap(s)]
	if Poisoning {
		for i := range full {
			full[i] = PoisonI64
		}
	}
	if !p.free.push(c, full, localCap) && !p.spill.give(c, full) {
		p.Drops++
		return
	}
	p.Puts++
}

// Held reports the bytes of the slabs on the pool's own free lists.
func (p *Pool) Held() int64 { return p.free.bytes() }

// lists holds one LIFO list of free slabs per size class.
type lists [numClasses][][]int64

// pop removes and returns the most recently pushed class-c slab, or nil.
func (l *lists) pop(c int) []int64 {
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
func (l *lists) push(c int, s []int64, limit int) bool {
	if len(l[c]) >= limit {
		return false
	}
	l[c] = append(l[c], s)
	return true
}

// bytes reports the bytes of every slab on the lists.
func (l *lists) bytes() int64 {
	var n int64
	for c := range l {
		n += int64(len(l[c])) * classCap(c)
	}
	return n * wordBytes
}

// spill is the overflow free list the pools of one shard group share.
// Every access holds mu.
type spill struct {
	mu   sync.Mutex
	free lists
}

// take pops a class-c slab, or returns nil (always, for a nil spill).
func (sp *spill) take(c int) []int64 {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.free.pop(c)
}

// give pushes a class-c slab and reports whether there was room.
func (sp *spill) give(c int, s []int64) bool {
	if sp == nil {
		return false
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.free.push(c, s, spillCap)
}

// held reports the bytes of the slabs in the spill.
func (sp *spill) held() int64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.free.bytes()
}

// newSlab allocates one class-c slab whose base is aligned to a line
// boundary by over-allocating one line and trimming with a three-index
// slice (GC-safe: no pointer rebasing), so distinct slabs never share a
// coherence line.
func newSlab(c int) []int64 {
	n := classCap(c)
	const pad = cacheLine / wordBytes
	raw := make([]int64, n+pad)
	off := int64(0)
	if rem := int64(uintptr(unsafe.Pointer(&raw[0])) % cacheLine); rem != 0 {
		// The base of a []int64 is word-aligned, so the gap to the next
		// line boundary is a whole number of words.
		off = (cacheLine - rem) / wordBytes
	}
	return raw[off : off+n : off+n]
}

// Shard is one worker's scratch arena: the word pool the fork-join kernels
// allocate from, plus an extension slot.  All fields are plain and
// owner-only — the falseshare discipline by construction, not by
// annotation — and each shard is its own heap allocation, so two workers'
// hot free-list heads never share a cache line.  The spill behind the pool
// belongs to the shard's group.
type Shard struct {
	I64 Pool

	// Aux lets a client layer (internal/fj) hang its own per-worker state
	// off the shard without this package knowing its type.  Owner-only,
	// like the pool.
	Aux any

	// Tail pad: whatever the allocator places after this shard cannot
	// share the shard's last line.
	_ [cacheLine]byte
}

// PoisonI64 is the word released slabs are filled with under the race
// detector: a loud, recognizable value no kernel computes.  As an int64 it
// shows the repeated 0x5CA7 ("scat") pattern; as a float64, or as either
// half of a complex128, it is a quiet NaN, which propagates.
const PoisonI64 = int64(0x7FF8_5CA7_5CA7_5CA7)

// NewShards returns n ready shards that share one spill: one per worker of
// a pool.
func NewShards(n int) []*Shard {
	sp := &spill{}
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = &Shard{I64: Pool{spill: sp}}
	}
	return shards
}

// NewShard returns a ready shard with a spill of its own.
func NewShard() *Shard { return NewShards(1)[0] }

// Held reports the bytes of the slabs on the shard's own free lists.
func (s *Shard) Held() int64 { return s.I64.Held() }

// Spilled reports the bytes of the slabs in the spill of the shard's group.
func (s *Shard) Spilled() int64 { return s.I64.spill.held() }
