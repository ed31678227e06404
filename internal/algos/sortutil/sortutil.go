// Package sortutil holds the serial building blocks the fj sort kernels
// (internal/algos/sortx, internal/algos/spms) share: the output-rank dual
// binary search their merge partitions cut with, the value-rank bounds the
// k-way sample partition cuts with, the stable serial two-way and k-way
// merges, and the leaf sort.  RawMerge2 is the one native merge loop of the
// real backend — MergeSerial's raw branch calls it — while the charged
// Get/Set loops of MergeSerial and MergeK are what the simulator runs.  The
// two kernels must agree on one tie-breaking convention (ties take from the
// earliest run) for their splits and serial merges to compose; keeping a
// single copy here is what guarantees they cannot drift — the
// duplicate-handling bug the positional split fixed was exactly a divergence
// in this machinery, and TestTieBreakConventionsAgree pins the two-way and
// k-way paths to each other.
package sortutil

import (
	"slices"

	"repro/internal/fj"
)

// Split finds i ∈ [max(0, k−|b|), min(k, |a|)] with a[i−1] ≤ b[k−i] and
// b[k−i−1] < a[i], so that a[0:i] ∪ b[0:k−i] are exactly the k elements a
// stable merge emits first (ties taken from a, matching MergeSerial).
// Splitting by output rank divides an equal key range between the two sides
// by position, never by value, so duplicate-heavy inputs cannot unbalance
// the callers' merge recursions.
func Split(c *fj.Ctx, a, b fj.I64, k int64) int64 {
	lo := k - b.Len()
	if lo < 0 {
		lo = 0
	}
	hi := k
	if hi > a.Len() {
		hi = a.Len()
	}
	for lo < hi {
		i := (lo + hi) / 2
		// If the last b taken sorts strictly before a[i], i may shrink;
		// otherwise stability forces taking more from a.
		if b.Get(c, k-i-1) < a.Get(c, i) {
			hi = i
		} else {
			lo = i + 1
		}
	}
	return lo
}

// radixMinLen is the run length at which the real leaf sort switches from
// pdqsort to the LSD radix: below it the histogram passes cost more than
// they save.
const radixMinLen = 256

// SortLeaf sorts a run serially: an LSD byte-radix sort (pdqsort below
// radixMinLen) on the native backing on the real backend, insertion sort
// through charged accesses under the simulator (leaves are small there).
// The backends may sort by different algorithms because a sorted int64
// multiset has exactly one byte representation — the cross-backend identity
// gate is indifferent to how the order was produced.
func SortLeaf(c *fj.Ctx, v fj.I64) {
	if s := v.Raw(); s != nil {
		if len(s) >= radixMinLen {
			tmp := c.ScratchI64(int64(len(s)))
			radixSortI64(s, tmp.Raw())
			c.FreeI64(tmp)
			return
		}
		slices.Sort(s)
		return
	}
	n := v.Len()
	for i := int64(1); i < n; i++ {
		x := v.Get(c, i)
		j := i - 1
		for j >= 0 && v.Get(c, j) > x {
			v.Set(c, j+1, v.Get(c, j))
			j--
		}
		v.Set(c, j+1, x)
	}
}

// radixSortI64 sorts s ascending with a least-significant-digit byte radix,
// using tmp (len(tmp) ≥ len(s)) as the ping-pong scratch.  Keys are mapped
// to unsigned order by flipping the sign bit.  One OR-of-XOR pass against
// s[0] finds the bits in which any two keys differ, and only the bytes that
// hold such a bit get a histogram and a scatter (a stable scatter on a byte
// all keys share is the identity): 30-bit keys pay for four digits, counts
// included, and all-equal keys for none.  Each digit counts into its own
// 1 KB table in a loop of its own — measured faster than one pass filling
// every live digit's table through a two-level index (CHANGES.md, PR 23).
func radixSortI64(s, tmp []int64) {
	if len(s) < 2 {
		return
	}
	var diff uint64
	for _, x := range s {
		diff |= uint64(x ^ s[0])
	}
	src, dst := s, tmp[:len(s)]
	for sh := 0; sh < 64; sh += 8 {
		if diff>>sh&0xFF == 0 {
			continue
		}
		var c [256]int32
		for _, x := range src {
			c[uint8((uint64(x)^(1<<63))>>sh)]++
		}
		var sum int32
		for i := range c {
			c[i], sum = sum, sum+c[i]
		}
		for _, x := range src {
			d := uint8((uint64(x) ^ (1 << 63)) >> sh)
			dst[c[d]] = x
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// RawMerge2 is the one native serial merge of the real backend: it merges
// sorted a and b into out (len(out) = len(a)+len(b), out overlapping
// neither) stably, ties taken from a.  The select and the cursor step are
// written so the compiler emits conditional moves, not a branch on the
// comparison — on random keys that branch mispredicts every other element —
// and each inner stretch runs min(len(a)−i, len(b)−j) steps, in which
// neither run can drain, so it carries no exhaustion test.
func RawMerge2(a, b, out []int64) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		o := out[i+j : i+j+min(len(a)-i, len(b)-j)]
		for s := range o {
			x, y := a[i], b[j]
			v, t := y, 0
			if x <= y {
				v, t = x, 1
			}
			o[s] = v
			i += t
			j += 1 - t
		}
	}
	copy(out[i+j:], a[i:])
	copy(out[len(a)+j:], b[j:])
}

// MergeSerial merges sorted runs a and b into out serially and stably
// (ties take from a first).
func MergeSerial(c *fj.Ctx, a, b, out fj.I64) {
	if as := a.Raw(); as != nil {
		RawMerge2(as, b.Raw(), out.Raw())
		return
	}
	var i, j int64
	for i < a.Len() && j < b.Len() {
		if x, y := a.Get(c, i), b.Get(c, j); x <= y {
			out.Set(c, i+j, x)
			i++
		} else {
			out.Set(c, i+j, y)
			j++
		}
	}
	fj.Copy(c, out.Slice(i+j, a.Len()+j), a.Slice(i, a.Len()))
	fj.Copy(c, out.Slice(a.Len()+j, a.Len()+b.Len()), b.Slice(j, b.Len()))
}

// LowerBound returns the first index i in the sorted run v with v[i] ≥ x
// (v.Len() if none).  The loop runs a fixed ⌈log₂ n⌉ iterations regardless
// of branch outcomes, so charged work is value-independent.
func LowerBound(c *fj.Ctx, v fj.I64, x int64) int64 {
	lo, hi := int64(0), v.Len()
	for lo < hi {
		i := (lo + hi) / 2
		if v.Get(c, i) < x {
			lo = i + 1
		} else {
			hi = i
		}
	}
	return lo
}

// UpperBound returns the first index i in the sorted run v with v[i] > x
// (v.Len() if none).
func UpperBound(c *fj.Ctx, v fj.I64, x int64) int64 {
	lo, hi := int64(0), v.Len()
	for lo < hi {
		i := (lo + hi) / 2
		if v.Get(c, i) <= x {
			lo = i + 1
		} else {
			hi = i
		}
	}
	return lo
}

// kEntry is one heap slot of MergeK: a run's head value and the run index.
type kEntry struct {
	v int64
	r int
}

// kLess orders heap entries by value with ties to the lowest run index —
// the k-way generalization of MergeSerial's "ties take from a first".
func kLess(a, b kEntry) bool {
	return a.v < b.v || (a.v == b.v && a.r < b.r)
}

// kPush sifts e up into the heap and returns the grown slice.  A plain
// function (not a closure capturing the heap) so callers can keep the heap
// in a stack array: the hot k-way merges run with zero heap allocations.
func kPush(heap []kEntry, e kEntry) []kEntry {
	heap = append(heap, e)
	for i := len(heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !kLess(heap[i], heap[p]) {
			break
		}
		heap[i], heap[p] = heap[p], heap[i]
		i = p
	}
	return heap
}

// kPop removes and returns the minimum entry, returning the shrunk slice.
func kPop(heap []kEntry) (kEntry, []kEntry) {
	top := heap[0]
	last := len(heap) - 1
	heap[0] = heap[last]
	heap = heap[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(heap) && kLess(heap[l], heap[min]) {
			min = l
		}
		if r < len(heap) && kLess(heap[r], heap[min]) {
			min = r
		}
		if min == i {
			break
		}
		heap[i], heap[min] = heap[min], heap[i]
		i = min
	}
	return top, heap
}

// mergeKStackMax is the run count at or below which MergeK keeps its heap
// and cursor state in stack arrays instead of allocating.
const mergeKStackMax = 32

// MergeK merges the sorted runs into out serially and stably: ties emit
// from the earliest run first, and within a run in position order, matching
// MergeSerial on two runs (TestTieBreakConventionsAgree pins the
// agreement).  A binary heap of run heads keyed (value, run index) makes
// the charge profile exactly one Get and one Set per element, the same as
// MergeSerial; the heap bookkeeping itself is uncharged local state, held
// in stack arrays up to mergeKStackMax runs so the merge allocates nothing.
// Empty runs are permitted, and out must have the runs' total length.
func MergeK(c *fj.Ctx, runs []fj.I64, out fj.I64) {
	var hbuf [mergeKStackMax]kEntry
	var pbuf [mergeKStackMax]int64
	var heap []kEntry
	var pos []int64
	if len(runs) <= mergeKStackMax {
		heap, pos = hbuf[:0], pbuf[:len(runs)]
	} else {
		heap, pos = make([]kEntry, 0, len(runs)), make([]int64, len(runs))
	}
	for r := range runs {
		if runs[r].Len() > 0 {
			heap = kPush(heap, kEntry{runs[r].Get(c, 0), r})
			pos[r] = 1
		}
	}
	for k := int64(0); len(heap) > 0; k++ {
		var e kEntry
		e, heap = kPop(heap)
		out.Set(c, k, e.v)
		if pos[e.r] < runs[e.r].Len() {
			heap = kPush(heap, kEntry{runs[e.r].Get(c, pos[e.r]), e.r})
			pos[e.r]++
		}
	}
}
