package cache

import (
	"container/list"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLRUEvictionOrder(t *testing.T) {
	s := NewSet(3)
	s.Insert(1)
	s.Insert(2)
	s.Insert(3)
	s.Touch(1) // order now (MRU→LRU): 1,3,2
	ev, did := s.Insert(4)
	if !did || ev != 2 {
		t.Fatalf("evicted %d (did=%v), want 2", ev, did)
	}
	if ok, _ := s.Access(2); ok {
		t.Error("block 2 still resident after eviction")
	}
}

func TestInvalidateKeepsFrame(t *testing.T) {
	s := NewSet(2)
	s.Insert(5)
	if !s.Invalidate(5) {
		t.Fatal("Invalidate returned false for resident block")
	}
	present, valid := s.Access(5)
	if !present || valid {
		t.Fatalf("after invalidation: present=%v valid=%v, want true/false", present, valid)
	}
	// Re-inserting revalidates in place without eviction.
	if _, did := s.Insert(5); did {
		t.Error("revalidation should not evict")
	}
	if !s.ResidentValid(5) {
		t.Error("block should be valid after re-insert")
	}
}

func TestInvalidateMissing(t *testing.T) {
	s := NewSet(2)
	if s.Invalidate(42) {
		t.Error("Invalidate of absent block returned true")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	f := func(blocks []uint8) bool {
		s := NewSet(4)
		for _, b := range blocks {
			s.Insert(int64(b % 32))
			if s.Len() > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLRUSequentialScanEvicts(t *testing.T) {
	s := NewSet(4)
	for b := int64(0); b < 10; b++ {
		s.Insert(b)
	}
	// Only the last 4 remain.
	for b := int64(0); b < 6; b++ {
		if ok, _ := s.Access(b); ok {
			t.Errorf("block %d should have been evicted", b)
		}
	}
	for b := int64(6); b < 10; b++ {
		if !s.ResidentValid(b) {
			t.Errorf("block %d should be resident", b)
		}
	}
}

func TestDirectorySharers(t *testing.T) {
	d := NewDirectory(4)
	d.AddSharer(7, 0)
	d.AddSharer(7, 2)
	d.AddSharer(7, 3)
	if got := d.Sharers(7); len(got) != 3 {
		t.Fatalf("sharers = %v", got)
	}
	victims := d.InvalidateOthers(7, 2)
	if len(victims) != 2 {
		t.Fatalf("victims = %v, want procs 0 and 3", victims)
	}
	if !d.HasSharer(7, 2) || d.HasSharer(7, 0) {
		t.Error("sharer set wrong after invalidation")
	}
}

func TestDirectoryTransferSerialization(t *testing.T) {
	// Transfers of the same block serialize: the second transfer starting
	// "in the past" completes after the first — the ping-pong delay.
	d := NewDirectory(2)
	c1 := d.AcquireTransfer(9, 100, 10)
	if c1 != 110 {
		t.Fatalf("first transfer completes at %d, want 110", c1)
	}
	c2 := d.AcquireTransfer(9, 105, 10)
	if c2 != 120 {
		t.Fatalf("contended transfer completes at %d, want 120", c2)
	}
	// A different block is unaffected.
	if c3 := d.AcquireTransfer(10, 105, 10); c3 != 115 {
		t.Fatalf("uncontended transfer completes at %d, want 115", c3)
	}
	if d.BlockTransfers(9) != 2 || d.Transfers != 3 {
		t.Error("transfer counts wrong")
	}
}

func TestBlockDelayAccumulates(t *testing.T) {
	// Definition 2.2: x interleaved transfers of one block impose Ω(x·b)
	// delay on the last core.
	d := NewDirectory(8)
	var last int64
	for i := 0; i < 8; i++ {
		last = d.AcquireTransfer(1, 0, 5)
	}
	if last != 40 {
		t.Fatalf("8 transfers at latency 5 end at %d, want 40", last)
	}
	if _, tr := d.MaxBlockTransfers(); tr != 8 {
		t.Fatalf("max block transfers = %d", tr)
	}
}

func TestBitsetManyProcs(t *testing.T) {
	// Over 64 procs exercises the multi-word bitset.
	d := NewDirectory(130)
	for _, p := range []int{0, 63, 64, 100, 129} {
		d.AddSharer(3, p)
	}
	got := d.Sharers(3)
	want := []int{0, 63, 64, 100, 129}
	if len(got) != len(want) {
		t.Fatalf("sharers = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sharers = %v, want %v", got, want)
		}
	}
	victims := d.InvalidateOthers(3, 64)
	if len(victims) != 4 {
		t.Fatalf("victims = %v", victims)
	}
}

func TestBackToBackTransfersSerialize(t *testing.T) {
	// Two transfers of the same block requested at the same instant must
	// be strictly serialized through busyUntil: the second starts exactly
	// when the first completes, with the wait equal to the full latency.
	d := NewDirectory(2)
	c1 := d.AcquireTransfer(3, 0, 8)
	c2 := d.AcquireTransfer(3, 0, 8)
	if c1 != 8 || c2 != 16 {
		t.Fatalf("back-to-back completions = %d, %d; want 8, 16", c1, c2)
	}
	if wait := c2 - 0 - 8; wait != 8 {
		t.Fatalf("serialization wait = %d, want 8", wait)
	}
	// A third request issued after the block went quiet pays no wait.
	if c3 := d.AcquireTransfer(3, 100, 8); c3 != 108 {
		t.Fatalf("quiet-block completion = %d, want 108", c3)
	}
}

func TestDirectoryPagingBoundaries(t *testing.T) {
	// Blocks in distinct pages (and at page edges) keep independent state;
	// the directory must behave identically across shard boundaries.
	d := NewDirectory(4)
	blocks := []int64{0, dirPageLen - 1, dirPageLen, 3*dirPageLen + 17}
	for i, b := range blocks {
		d.AddSharer(b, i%4)
		d.AcquireTransfer(b, int64(i), 2)
	}
	for i, b := range blocks {
		if !d.HasSharer(b, i%4) {
			t.Errorf("block %d lost sharer %d", b, i%4)
		}
		if d.BlockTransfers(b) != 1 {
			t.Errorf("block %d transfers = %d, want 1", b, d.BlockTransfers(b))
		}
	}
	if d.Transfers != int64(len(blocks)) {
		t.Errorf("total transfers = %d, want %d", d.Transfers, len(blocks))
	}
	if b, tr := d.MaxBlockTransfers(); tr != 1 || b != 0 {
		t.Errorf("max transfers = (%d, %d), want block 0 with 1", b, tr)
	}
}

func TestDirectoryReadsDoNotAllocatePages(t *testing.T) {
	// Read-only queries on untouched blocks must neither allocate shard
	// pages nor perturb counters.
	d := NewDirectory(2)
	far := int64(100 * dirPageLen)
	if d.HasSharer(far, 0) || d.Sharers(far) != nil || d.BlockTransfers(far) != 0 {
		t.Error("untouched block reports state")
	}
	d.RemoveSharer(far, 0) // no-op on untouched block
	if len(d.pages) != 0 {
		t.Errorf("read path allocated %d pages", len(d.pages))
	}
	if _, tr := d.MaxBlockTransfers(); tr != 0 {
		t.Error("empty directory reports transfers")
	}
}

// refSet is the reference model the slab Set is checked against: the
// map-and-pointer LRU the Set replaced, written the obvious way.
type refSet struct {
	capacity int
	frames   map[int64]*list.Element // of *refFrame; front = MRU
	lru      list.List
}

type refFrame struct {
	block int64
	valid bool
}

func (r *refSet) access(b int64) (present, valid bool) {
	e, ok := r.frames[b]
	if !ok {
		return false, false
	}
	if !e.Value.(*refFrame).valid {
		return true, false
	}
	r.lru.MoveToFront(e)
	return true, true
}

func (r *refSet) insert(b int64) (evicted int64, didEvict bool) {
	if e, ok := r.frames[b]; ok {
		e.Value.(*refFrame).valid = true
		r.lru.MoveToFront(e)
		return 0, false
	}
	if len(r.frames) >= r.capacity {
		evicted, didEvict = r.lru.Remove(r.lru.Back()).(*refFrame).block, true
		delete(r.frames, evicted)
	}
	r.frames[b] = r.lru.PushFront(&refFrame{block: b, valid: true})
	return evicted, didEvict
}

func (r *refSet) invalidate(b int64) bool {
	e, ok := r.frames[b]
	if !ok || !e.Value.(*refFrame).valid {
		return false
	}
	e.Value.(*refFrame).valid = false
	return true
}

// checkSetMatchesReference replays ops — each byte pair an operation and a
// block — on a Set and on the reference and compares every result and, after
// every step, Len and the residency of the block just used.  The low bits of
// the block byte pick one of 16 blocks in each of four index pages, far
// enough apart (pages 0, 1, 2 and 40) that the index grows in steps and
// leaves holes.
func checkSetMatchesReference(t *testing.T, capBlocks int, ops []byte) {
	t.Helper()
	s := NewSet(capBlocks)
	ref := &refSet{capacity: capBlocks, frames: map[int64]*list.Element{}}
	pages := [4]int64{0, 1, 2, 40}
	for i := 0; i+1 < len(ops); i += 2 {
		b := pages[ops[i+1]>>4&3]*dirPageLen + int64(ops[i+1]&15)
		if ops[i+1]&0x40 != 0 {
			b += dirPageLen - 16 // the far edge of the page
		}
		switch ops[i] % 4 {
		case 0, 1: // the access path of Proc.access: classify, fetch on a miss
			p, v := s.Access(b)
			wp, wv := ref.access(b)
			if p != wp || v != wv {
				t.Fatalf("op %d: Access(%d) = (%v, %v), reference (%v, %v)", i/2, b, p, v, wp, wv)
			}
			if v {
				break
			}
			fallthrough
		case 2:
			ev, did := s.Insert(b)
			wev, wdid := ref.insert(b)
			if ev != wev || did != wdid {
				t.Fatalf("op %d: Insert(%d) evicted (%d, %v), reference (%d, %v)", i/2, b, ev, did, wev, wdid)
			}
			if did && s.ResidentValid(ev) {
				t.Fatalf("op %d: evicted block %d still resident", i/2, ev)
			}
		case 3:
			if got, want := s.Invalidate(b), ref.invalidate(b); got != want {
				t.Fatalf("op %d: Invalidate(%d) = %v, reference %v", i/2, b, got, want)
			}
		}
		if s.Len() != len(ref.frames) {
			t.Fatalf("op %d: Len = %d, reference %d", i/2, s.Len(), len(ref.frames))
		}
		e, ok := ref.frames[b]
		if want := ok && e.Value.(*refFrame).valid; s.ResidentValid(b) != want {
			t.Fatalf("op %d: ResidentValid(%d) = %v, reference %v", i/2, b, !want, want)
		}
	}
}

func TestSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capBlocks := range []int{1, 2, 64} {
		for trial := 0; trial < 20; trial++ {
			ops := make([]byte, 4000)
			rng.Read(ops)
			checkSetMatchesReference(t, capBlocks, ops)
		}
	}
}

func FuzzSetMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{2, 1, 3, 1, 0, 1, 2, 2, 0, 1})                // revalidate an invalid frame in place
	f.Add(uint8(1), []byte{2, 1, 2, 2, 3, 1, 2, 3, 2, 4, 0, 1})          // evict an invalid frame
	f.Add(uint8(2), []byte{2, 0x0f, 2, 0x4f, 2, 0x1f, 2, 0x3f, 1, 0x0f}) // page edges and the far page
	f.Fuzz(func(t *testing.T, capSel uint8, ops []byte) {
		checkSetMatchesReference(t, []int{1, 2, 64}[capSel%3], ops)
	})
}
