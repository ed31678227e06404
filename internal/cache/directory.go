package cache

import "math/bits"

// Directory is the global coherence directory.  For every block it tracks
// the set of cores holding a copy and a busy-until timestamp used to
// serialize transfers of the same block.  The block delay of Definition 2.2
// — the number of times a block moves between caches during an interval —
// is the per-block transfer count maintained here.
//
// Storage is paged, not a hash map: block indices are dense (mem.Space
// allocates blocks sequentially from zero), so the directory shards its
// state into fixed-size pages of flat arrays — one sharer bitset, one
// busy-until timestamp and one transfer counter per block slot — allocated
// lazily as the address space grows.  Every access resolves in two index
// operations with no hashing and no per-block allocation, which is what
// makes the large EXP14 model-check grids feasible.
type Directory struct {
	pages    []*dirPage
	nprocs   int
	setWords int // words per sharer bitset: ⌈nprocs/64⌉
	// victims is InvalidateOthers's result buffer, reused by every call.
	victims []int
	// Transfers is the total number of block movements between caches
	// (cache-to-cache or memory-to-cache after invalidation).
	Transfers int64
}

const (
	// dirPageBits sets the shard granularity: 1<<dirPageBits block slots
	// per page (4096 blocks ≈ 96 KiB of directory state at p ≤ 64).
	dirPageBits = 12
	dirPageLen  = 1 << dirPageBits
	dirPageMask = dirPageLen - 1
)

// dirPage is one shard: flat per-block state for dirPageLen blocks.
type dirPage struct {
	sharers   []uint64 // dirPageLen × setWords, bitset per block slot
	busyUntil []int64
	transfers []int64
}

// NewDirectory returns a directory for nprocs cores.
func NewDirectory(nprocs int) *Directory {
	return &Directory{nprocs: nprocs, setWords: (nprocs + 63) / 64, victims: make([]int, 0, nprocs)}
}

// page returns the shard holding block b and b's slot within it, allocating
// the page if grow is set; (nil, 0) if the page does not exist and grow is
// unset.
func (d *Directory) page(b int64, grow bool) (*dirPage, int) {
	pi := int(b >> dirPageBits)
	if pi >= len(d.pages) {
		if !grow {
			return nil, 0
		}
		pages := make([]*dirPage, pi+1)
		copy(pages, d.pages)
		d.pages = pages
	}
	pg := d.pages[pi]
	if pg == nil {
		if !grow {
			return nil, 0
		}
		pg = &dirPage{
			sharers:   make([]uint64, dirPageLen*d.setWords),
			busyUntil: make([]int64, dirPageLen),
			transfers: make([]int64, dirPageLen),
		}
		d.pages[pi] = pg
	}
	return pg, int(b & dirPageMask)
}

// set returns the sharer bitset of the given page slot.
func (d *Directory) set(pg *dirPage, slot int) bitset {
	return bitset(pg.sharers[slot*d.setWords : (slot+1)*d.setWords])
}

// Sharers returns the cores currently holding block b.
func (d *Directory) Sharers(b int64) []int {
	pg, slot := d.page(b, false)
	if pg == nil {
		return nil
	}
	return d.set(pg, slot).members()
}

// HasSharer reports whether core p holds block b according to the directory.
func (d *Directory) HasSharer(b int64, p int) bool {
	pg, slot := d.page(b, false)
	return pg != nil && d.set(pg, slot).has(p)
}

// AddSharer records that core p now holds block b.
func (d *Directory) AddSharer(b int64, p int) {
	pg, slot := d.page(b, true)
	d.set(pg, slot).set(p)
}

// RemoveSharer records that core p no longer holds block b (eviction).
func (d *Directory) RemoveSharer(b int64, p int) {
	if pg, slot := d.page(b, false); pg != nil {
		d.set(pg, slot).clear(p)
	}
}

// InvalidateOthers removes every sharer of b except keep and returns the
// list of cores that lost a valid copy, nil if there is none.  Called on a
// write by core keep.  The list lives in a buffer the directory owns: it is
// valid until the next call.
func (d *Directory) InvalidateOthers(b int64, keep int) []int {
	pg, slot := d.page(b, false)
	if pg == nil {
		return nil
	}
	s := d.set(pg, slot)
	victims := d.victims[:0]
	for w, word := range s {
		if w == keep>>6 {
			word &^= 1 << (uint(keep) & 63)
		}
		s[w] &^= word
		for ; word != 0; word &= word - 1 {
			victims = append(victims, w*64+bits.TrailingZeros64(word))
		}
	}
	if len(victims) == 0 {
		return nil
	}
	return victims
}

// AcquireTransfer models one movement of block b into a cache beginning at
// time now: the transfer cannot start before the previous transfer of the
// same block finished (busyUntil), takes latency time units, and bumps the
// block-delay counter.  It returns the completion time; completion−now−latency
// is the serialization wait caused by contention on the block.
func (d *Directory) AcquireTransfer(b int64, now, latency int64) (complete int64) {
	pg, slot := d.page(b, true)
	start := now
	if pg.busyUntil[slot] > start {
		start = pg.busyUntil[slot]
	}
	complete = start + latency
	pg.busyUntil[slot] = complete
	pg.transfers[slot]++
	d.Transfers++
	return complete
}

// BlockTransfers returns the block delay (total transfers) recorded for b.
func (d *Directory) BlockTransfers(b int64) int64 {
	if pg, slot := d.page(b, false); pg != nil {
		return pg.transfers[slot]
	}
	return 0
}

// MaxBlockTransfers returns the largest per-block transfer count and the
// block that attained it.
func (d *Directory) MaxBlockTransfers() (block int64, transfers int64) {
	for pi, pg := range d.pages {
		if pg == nil {
			continue
		}
		for slot, t := range pg.transfers {
			if t > transfers {
				block, transfers = int64(pi)<<dirPageBits|int64(slot), t
			}
		}
	}
	return block, transfers
}

// bitset is a small dense bitset over core ids.
type bitset []uint64

func (s bitset) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func (s bitset) set(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s bitset) clear(i int)    { s[i>>6] &^= 1 << (uint(i) & 63) }

func (s bitset) members() []int {
	var out []int
	for w, word := range s {
		for word != 0 {
			out = append(out, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}
