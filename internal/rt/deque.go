package rt

// Chase–Lev lock-free work-stealing deque (Chase & Lev, SPAA 2005; the
// sequentially-consistent variant of Lê et al., PPoPP 2013).  The owner
// pushes and pops at the bottom with plain atomic loads/stores; thieves
// take from the top with a CAS.  The only synchronization point between
// the owner and a thief is the CAS on top — there is no lock, so an
// arbitrarily slow thief can never block the owner's hot path, and steals
// by distinct thieves are serialized by top alone.
//
// The task buffer is a growable power-of-two ring.  Only the owner grows
// it: the elements in [top, bottom) are copied into a ring twice the size
// and the ring pointer is swapped.  A thief that raced the swap still
// holds the old ring; its slots in [top, bottom) are never written again
// (the owner writes only through the current ring, and slot reuse would
// require bottom−top ≥ len, which grow prevents), so the stale read is
// benign and the CAS on top still arbitrates ownership of the element.
//
// top and bottom are *pointers* into the pool's worker-state block rather
// than fields of the deque: the pool lays those cells out either padded
// (each index on its own cache line, so thief CAS traffic on top never
// invalidates the owner's line holding bottom) or compact (all workers'
// indices packed), which is exactly the layout ablation EXP13 measures.
// Go's sync/atomic operations are sequentially consistent, which is
// stronger than the C11 acquire/release+fence discipline the published
// algorithm needs, so no explicit fences appear here.

import "sync/atomic"

// dequeInitSize is the initial ring capacity (must be a power of two).
const dequeInitSize = 64

// taskRing is one immutable-capacity circular buffer generation.
type taskRing struct {
	mask int64
	slot []atomic.Pointer[task]
}

func newTaskRing(size int64) *taskRing {
	return &taskRing{mask: size - 1, slot: make([]atomic.Pointer[task], size)}
}

// deque is the per-worker Chase–Lev deque.  top is the index the next
// thief will take; bottom is the index the owner will push into next.
type deque struct {
	top    *atomic.Int64
	bottom *atomic.Int64
	ring   atomic.Pointer[taskRing]
}

func (d *deque) init(top, bottom *atomic.Int64) {
	d.top, d.bottom = top, bottom
	d.ring.Store(newTaskRing(dequeInitSize))
}

// push appends t at the bottom.  Owner only.
func (d *deque) push(t *task) {
	b := d.bottom.Load()
	tp := d.top.Load()
	r := d.ring.Load()
	if b-tp >= int64(len(r.slot)) {
		r = d.grow(r, tp, b)
	}
	r.slot[b&r.mask].Store(t)
	d.bottom.Store(b + 1)
}

// grow doubles the ring, copying the live window [tp, b).  Owner only.
func (d *deque) grow(old *taskRing, tp, b int64) *taskRing {
	r := newTaskRing(int64(len(old.slot)) * 2)
	for i := tp; i < b; i++ {
		r.slot[i&r.mask].Store(old.slot[i&old.mask].Load())
	}
	d.ring.Store(r)
	return r
}

// pop removes and returns the bottom task, or nil when the deque is empty.
// Owner only.  When exactly one task remains the owner races thieves for it
// with the same CAS on top that thieves use.
func (d *deque) pop() *task {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	tp := d.top.Load()
	if tp > b {
		// Empty: undo the reservation.
		d.bottom.Store(tp)
		return nil
	}
	r := d.ring.Load()
	t := r.slot[b&r.mask].Load()
	if b > tp {
		return t
	}
	// Last element: win it with a CAS against any concurrent thief.
	if !d.top.CompareAndSwap(tp, tp+1) {
		t = nil
	}
	d.bottom.Store(tp + 1)
	return t
}

// empty reports whether the deque holds no task.  Owner only.
func (d *deque) empty() bool { return d.top.Load() >= d.bottom.Load() }

// steal removes and returns the top task, or nil.  Any thread.  The
// second return reports whether the failure was a lost CAS race (the
// victim may still hold work worth retrying) rather than emptiness.
func (d *deque) steal() (*task, bool) {
	tp := d.top.Load()
	b := d.bottom.Load()
	if tp >= b {
		return nil, false
	}
	r := d.ring.Load()
	t := r.slot[tp&r.mask].Load()
	if !d.top.CompareAndSwap(tp, tp+1) {
		return nil, true
	}
	return t, false
}
