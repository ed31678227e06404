// Package cache implements the private-cache and coherence-directory model of
// the paper (Sections 1 and 2.2).
//
// Each core has a private cache of size M words organized in blocks of B
// words, i.e. M/B block frames, managed with LRU replacement (which the
// paper notes suffices for its algorithms).  A write into a location of a
// shared block by core C invalidates the copy of that block in every other
// cache holding it; the next access by an invalidated core is a *block miss*.
// The directory tracks, per block, the set of caches holding a copy and a
// busy-until timestamp that serializes transfers of the same block, modelling
// the ping-ponging delay of false sharing: x interleaved writes by different
// cores can cost Ω(b·x) at every core accessing the block (Section 1).
//
// Neither structure hashes or allocates per access.  Block indices are dense
// — mem.Space hands out addresses sequentially from zero, so the blocks a
// run touches are 0 … Size/B — which lets both the per-core Set and the
// Directory key flat pages of dirPageLen slots by block index, allocated lazily
// as the address space grows.  A Set is a slab of M/B frames linked into the
// LRU order by int32 indices, found through such a paged block → frame
// index; the Directory keeps one sharer bitset, busy-until timestamp and
// transfer counter per slot.  A simulated access is a handful of index
// operations.
package cache

// Set is a fully-associative LRU cache over block indices for one simulated
// core.  Entries may be present-but-invalid: the frame is still occupied (and
// still subject to LRU eviction) but an access to it is a coherence (block)
// miss rather than a hit.
type Set struct {
	frames []frame // slab: grows to capacity, then evictions reuse slots
	// index maps block → slab slot + 1 (0 = not resident), in pages of the
	// Directory's geometry: 16 KiB per page this core ever touched.
	index []*[dirPageLen]int32
	// LRU list threaded through the slab: head = most recently used,
	// tail = least recently used, none = end of list.
	head, tail int32
}

const none = -1

type frame struct {
	block      int64
	prev, next int32
	valid      bool
}

// NewSet returns an empty cache with room for capBlocks blocks.
func NewSet(capBlocks int) *Set {
	if capBlocks <= 0 {
		panic("cache: capacity must be positive")
	}
	return &Set{frames: make([]frame, 0, capBlocks), head: none, tail: none}
}

// Len returns the number of resident blocks (valid or invalid).
func (s *Set) Len() int { return len(s.frames) }

// slot returns the index entry of block b, or nil if b's page was never
// touched by this core.
func (s *Set) slot(b int64) *int32 {
	if pi := int(b >> dirPageBits); pi < len(s.index) && s.index[pi] != nil {
		return &s.index[pi][b&dirPageMask]
	}
	return nil
}

// find returns the slab slot holding block b, or none.
func (s *Set) find(b int64) int32 {
	if e := s.slot(b); e != nil {
		return *e - 1
	}
	return none
}

// Access classifies an access to block b as (present, valid) and, when it is
// a hit (resident and valid), moves the block to the MRU position.  A miss
// leaves the cache untouched; the caller fetches the block and Inserts it.
func (s *Set) Access(b int64) (present, valid bool) {
	f := s.find(b)
	if f == none {
		return false, false
	}
	if !s.frames[f].valid {
		return true, false
	}
	s.moveToFront(f)
	return true, true
}

// Touch records an access to block b, which must already be resident and
// valid; it moves the block to the MRU position.
func (s *Set) Touch(b int64) {
	if _, valid := s.Access(b); !valid {
		panic("cache: Touch on non-resident or invalid block")
	}
}

// Insert brings block b into the cache at the MRU position, evicting the LRU
// block if the cache is full.  It returns the evicted block index and whether
// an eviction happened.  If b is already resident (e.g. present-but-invalid),
// the frame is revalidated in place.
func (s *Set) Insert(b int64) (evicted int64, didEvict bool) {
	pi := int(b >> dirPageBits)
	if pi >= len(s.index) {
		s.index = append(s.index, make([]*[dirPageLen]int32, pi+1-len(s.index))...)
	}
	if s.index[pi] == nil {
		s.index[pi] = new([dirPageLen]int32)
	}
	e := &s.index[pi][b&dirPageMask]
	if f := *e - 1; f != none {
		s.frames[f].valid = true
		s.moveToFront(f)
		return 0, false
	}
	var f int32
	if len(s.frames) == cap(s.frames) {
		f = s.tail
		s.unlink(f)
		evicted, didEvict = s.frames[f].block, true
		*s.slot(evicted) = 0
	} else {
		f = int32(len(s.frames))
		s.frames = s.frames[:f+1]
	}
	s.frames[f] = frame{block: b, valid: true}
	*e = f + 1
	s.pushFront(f)
	return evicted, didEvict
}

// Invalidate marks block b invalid if resident.  The frame stays occupied:
// the next access is a block miss, matching the coherence protocol in
// Section 2.2.  Returns whether the block was resident and valid.
func (s *Set) Invalidate(b int64) bool {
	f := s.find(b)
	if f == none || !s.frames[f].valid {
		return false
	}
	s.frames[f].valid = false
	return true
}

// ResidentValid reports whether block b is resident and valid.
func (s *Set) ResidentValid(b int64) bool {
	f := s.find(b)
	return f != none && s.frames[f].valid
}

func (s *Set) pushFront(f int32) {
	s.frames[f].prev, s.frames[f].next = none, s.head
	if s.head != none {
		s.frames[s.head].prev = f
	}
	s.head = f
	if s.tail == none {
		s.tail = f
	}
}

func (s *Set) unlink(f int32) {
	prev, next := s.frames[f].prev, s.frames[f].next
	if prev != none {
		s.frames[prev].next = next
	} else {
		s.head = next
	}
	if next != none {
		s.frames[next].prev = prev
	} else {
		s.tail = prev
	}
}

func (s *Set) moveToFront(f int32) {
	if s.head == f {
		return
	}
	s.unlink(f)
	s.pushFront(f)
}
