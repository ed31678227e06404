// Package mem provides the simulated word-addressable shared memory used by
// the HBP machine model.
//
// The paper's machine organizes data in blocks of B words; the initial input
// of size n occupies n/B blocks of main memory.  Space requested by a core is
// allocated in block-sized units, and allocations to different cores are
// disjoint (Section 2.2, "system property").  This package implements that
// with a single flat address space of int64 words and one block-aligned bump
// allocator shared by every simulated processor: each allocation starts and
// ends on a block boundary, so no two allocations share a block, whichever
// cores made them.  A run's allocations are therefore laid out in the order
// the engine makes them — inputs first, then the execution stacks, then
// what the tasks allocate, action by action — which is what lets a recorded
// run name a heap word by its allocation and offset.
//
// Addresses are plain int64 word indices.  Values are int64 words; float64
// payloads are stored via math.Float64bits.  All reads and writes normally go
// through machine.Proc so that cache and coherence behaviour is simulated;
// the raw Load/Store entry points here exist for test setup, result
// extraction, and the serial reference implementations.
//
// The address space is backed by 32 KiB pages materialised on first store,
// so a simulated run pays for the memory it touches, not for the regions it
// reserves (execution stacks are reserved whole and mostly never written);
// segBits says why pages are that size.
package mem

import (
	"fmt"
	"math"
	"math/bits"
)

// Addr is a word address in the simulated shared memory.
type Addr = int64

// segBits determines the segment (page) size: 1<<segBits words per segment.
// The address space grows by whole segments so that previously returned
// addresses stay valid without copying.  4096 words is 32 KiB, the largest
// size Go serves from its small-object caches.  Every region a run touches —
// the input, each proc's stack, each dynamic allocation — materialises at
// least one segment, so a larger one makes each a large-object allocation
// with its zeroing, which dominates a small simulated run.
const segBits = 12

const segSize = 1 << segBits

// Space is a growable flat address space of 64-bit words.
//
// The zero value is not ready for use; call NewSpace.
type Space struct {
	segs       [][]int64
	used       Addr // high-water mark of allocated words
	blockB     int  // words per block (B)
	blockShift uint // log2 B
}

// NewSpace returns an empty address space with the given block size B
// (in words).  B must be a positive power of two.
func NewSpace(blockWords int) *Space {
	if blockWords <= 0 || blockWords&(blockWords-1) != 0 {
		panic(fmt.Sprintf("mem: block size must be a positive power of two, got %d", blockWords))
	}
	return &Space{blockB: blockWords, blockShift: uint(bits.TrailingZeros(uint(blockWords)))}
}

// BlockWords returns B, the number of words per block.
func (s *Space) BlockWords() int { return s.blockB }

// Block returns the block index containing addr.
func (s *Space) Block(addr Addr) int64 { return addr >> s.blockShift }

// Size returns the number of words allocated so far.
func (s *Space) Size() Addr { return s.used }

// grow extends the segment table to cover addresses [0, limit).  Segment
// backing arrays are materialized lazily on first store, so reserving large
// regions (e.g. execution stacks) costs no real memory until touched.
func (s *Space) grow(limit Addr) {
	need := int((limit + segSize - 1) >> segBits)
	for len(s.segs) < need {
		s.segs = append(s.segs, nil)
	}
}

// Alloc reserves n words starting at a block boundary and returns the base
// address.  The tail of the last block is padded (never reused), so distinct
// allocations never share a block, matching the paper's allocation property.
func (s *Space) Alloc(n int64) Addr {
	if n < 0 {
		panic("mem: negative allocation")
	}
	b := int64(s.blockB)
	base := (s.used + b - 1) / b * b
	s.used = base + (n+b-1)/b*b
	s.grow(s.used)
	return base
}

// Release frees every word at or above mark, a size the space had, for the
// next Alloc: what they held is zeroed, so memory is born zeroed however
// often it is reused.
func (s *Space) Release(mark Addr) {
	if mark < 0 || mark > s.used {
		panic(fmt.Sprintf("mem: release to %d of a space of %d words", mark, s.used))
	}
	seg := int(mark >> segBits)
	if off := mark & (segSize - 1); off != 0 {
		if p := s.segs[seg]; p != nil {
			clear(p[off:])
		}
		seg++
	}
	clear(s.segs[seg:])
	s.segs = s.segs[:seg]
	s.used = mark
}

// Load reads the word at addr without any cache simulation.  Untouched
// memory reads as zero.
func (s *Space) Load(addr Addr) int64 {
	seg := s.segs[addr>>segBits]
	if seg == nil {
		return 0
	}
	return seg[addr&(segSize-1)]
}

// Store writes the word at addr without any cache simulation.
func (s *Space) Store(addr Addr, v int64) {
	i := addr >> segBits
	if s.segs[i] == nil {
		s.segs[i] = make([]int64, segSize)
	}
	s.segs[i][addr&(segSize-1)] = v
}

// LoadF and StoreF move float64 payloads through the word at addr.
func (s *Space) LoadF(addr Addr) float64     { return math.Float64frombits(uint64(s.Load(addr))) }
func (s *Space) StoreF(addr Addr, v float64) { s.Store(addr, int64(math.Float64bits(v))) }

// Region describes a contiguous allocated range [Base, Base+Len).
type Region struct {
	Base Addr
	Len  int64
}
