package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Record and replay.
//
// The counts a run yields are a function of the tree of tasks, of each
// action's stream of word accesses and charges, and of the schedule.  The
// kernel code only produces the tree and the streams, and for a fixed
// computation and input they are the same whichever cores and scheduler
// run it.  Record runs a computation live and keeps what it produced as a
// Tape; Replay runs the tape on another engine — any core count,
// scheduler or padding — whose actions re-issue the recorded streams, so
// every count comes out as a live run's would, without the kernel code,
// its closures, or the values it moved.  A Writer records a computation with
// no engine at all, for a frontend that can run it as plain serial code
// (internal/fj does).
//
// Addresses on a tape are symbolic, because the engine lays memory out as
// it goes: the execution stacks it reserves grow with p, and every
// allocation comes from the space's one bump allocator in the engine's
// action order, which the schedule decides.  So a word is kept as
//
//   - an input word (below the space's size when the engine was built, the
//     words the builder allocated): its address;
//   - a heap word: (k, offset), k numbering the recording's allocating
//     actions; a replay makes action k's allocation in that action, as one
//     allocation of the words it took (every allocation is block-aligned,
//     so the layout inside is the same);
//   - a stack word: (d, offset), offset from the locals of the running
//     task's d-th ancestor (0: the task itself).
//
// A recording refuses what it cannot replay, and the run goes on live: a
// task that asks for its core or its clock (Ctx.Proc, Ctx.Now) depends on
// the schedule; a stack word outside the running task's ancestors' frames
// has no symbol; and a recording is dropped once it holds more than
// tapeBudget bytes.

// tapeBudget caps the bytes a recording holds.
var tapeBudget int64 = 64 << 20

var (
	errScheduleDependent = errors.New("core: the computation asked for its core or clock")
	errStackWord         = errors.New("core: a task accessed a stack word outside its ancestors' frames")
	errOverBudget        = errors.New("core: the recording outgrew its budget")
)

// A stream is a sequence of uvarint entries h, ended by a 0: h&7 is the
// code and h>>3 its operand v.  The access codes carry the write flag in
// their low bit, and their deltas restart at every stream.
const (
	opCompute = 0 // v ≥ 2: Op(v−1); v = 1: the stream goes on at the next page
	opAlloc   = 1 // allocation k (a uvarint k follows) grows by v words
	opInput   = 2 // input word: v is the zigzag delta from the previous one
	opHeap    = 4 // heap word k<<32 | offset, as a zigzag delta
	opStack   = 6 // stack word of ancestor v; a uvarint zigzag offset follows
)

// Task kinds on a tape.
const (
	kindFork = iota
	kindSeq
	kindRange
)

// The kinds of action a recording brackets.
const (
	actHead  = iota // a fork's Fork
	actStage        // a sequence's Seq
	actJoin         // a Join
	actLeaf         // a range's body at one index
)

// Tape is one recorded run of a computation: its task tree and every
// action's stream.  It is immutable, so any number of replays may share it.
//
// The tape is written as the run goes, in pages of pageSize bytes that are
// never copied, with 4-byte little-endian positions (page<<pageBits |
// offset) patched in where a later action continues a task.  Only a stream
// runs on from one page to the next; everything else lies in one page.
// A task's record is a header — its shape (kind, Locals, Pad, Label) and
// Size — and then
//
//	fork, seq: the position of its first segment
//	range:     Lo, Hi−Lo, Per, and the index of its first leaf in leaves
//
// A fork's head segment is the head's stream, a byte whose bits 0 and 1
// say whether a left and a right child follow, and if either does, the
// position of the join segment and the children's records.  A sequence has
// one segment per Seq call: the stream, the position of the next segment
// (the next stage's, or the join's after the last), and a byte saying
// whether a stage root's record follows it.  A join segment, and a range
// leaf's, is just the stream.  A join position of 0 — the root's record —
// means the node has no Join.
type Tape struct {
	b      int      // block size of the recording machine
	inputs mem.Addr // words the builder allocated
	allocs int      // allocations a replay makes
	pages  [][]byte
	leaves []uint32 // where each range leaf's segment starts
	shapes []shape
}

// shape is what a task record shares with many others: its kind and its
// node's Locals, Pad and Label.
type shape struct {
	kind        uint8
	locals, pad int32
	label       string
}

// Inputs returns the number of words the recorded computation's builder
// allocated.  A replay runs on a fresh machine that has allocated exactly
// these, as one allocation, before its engine is built.
func (t *Tape) Inputs() int64 { return t.inputs }

// Sum returns a SHA-256 digest of the tape: two recordings of computations
// with the same task tree and the same access streams have the same sum.
func (t *Tape) Sum() [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %d %v\n", t.b, t.inputs, t.allocs, len(t.pages), len(t.leaves), t.shapes)
	for _, p := range t.pages {
		h.Write(p)
	}
	binary.Write(h, binary.LittleEndian, t.leaves)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Record runs the computation rooted at root like Run, and returns with
// its result a Tape of the run, or the reason it could not record one.  The
// engine must be fresh, built on the machine the computation's builder
// allocated its inputs in.
func (e *Engine) Record(root *Node) (Result, *Tape, error) {
	rc := newRecorder(e.m.Space, e.inputs, e.heapStart)
	rc.e = e
	e.rc = rc
	for _, ps := range e.ps {
		ps.ctx.rc = rc
	}
	res := e.Run(root)
	if rc.err != nil {
		return res, nil, rc.err
	}
	e.rc = nil
	for _, ps := range e.ps {
		ps.ctx.rc = nil
	}
	return res, rc.tape(), nil
}

// Replay runs t on the engine, which must be fresh and built on a machine
// with t's block size that has allocated t.Inputs() words and nothing else,
// and returns the result a live run of the recorded computation on this
// engine would.
func (e *Engine) Replay(t *Tape) Result { return e.Run(t.Root()) }

// Root returns the root of a replay of t, for an engine to run as Replay
// does: one whose machine does not fit t panics at the root's first
// action.  The node runs once.
func (t *Tape) Root() *Node {
	pl := &player{t: t, bases: make([]mem.Addr, t.allocs)}
	root, _ := pl.node(0)
	return &root.Node
}

// --- Writing a tape without an engine -------------------------------------

// Writer records a fork-join computation run as serial code, with no
// engine: it writes the tape Engine.Record writes of the same computation
// lowered to Nodes.  There, every task of the computation is an fj·task
// sequence; a Fork ends the task's running stage with an fj·fork pair whose
// head does nothing, and whose children are an fj·seg sequence — the
// forking task's continuation, the code up to the matching Join — and the
// forked task; and the code after a Join runs as the next stage of the
// sequence the Join returns to.  A Writer records that tree in the order
// serial code meets it: the forked task first, then the continuation.
//
// Accesses and allocations go straight to the space, uncached.  No budget
// caps a writer's tape, as nothing can fall back to a live run.
type Writer struct {
	rc *recorder
	// segs are the sequences whose stages are open or still to come, the
	// running one last.
	segs []int32
}

// The shapes of the tasks a Writer writes besides its root.
var (
	pairShape = shape{kind: kindFork, label: "fj·fork"}
	segShape  = shape{kind: kindSeq, label: "fj·seg"}
	taskShape = shape{kind: kindSeq, label: "fj·task"}
)

// NewWriter starts the tape of a computation over what space has
// allocated: its root task, a sequence of the given size and label, runs
// first.
func NewWriter(space *mem.Space, size int64, label string) *Writer {
	w := &Writer{rc: newRecorder(space, space.Size(), space.Size())}
	w.segs = append(w.segs, w.rc.record(shape{kind: kindSeq, label: label}, size))
	w.rc.openAt(w.segs[0], actStage)
	return w
}

// Fork ends the running stage with a fork and starts the forked task.
func (w *Writer) Fork() {
	rc := w.rc
	rc.close()
	rc.buf[len(rc.buf)-1] = 1 // the stage root follows
	pair := rc.record(pairShape, 1)
	rc.openAt(pair, actHead)
	rc.close()
	rc.children(pair, 3)
	w.segs = append(w.segs, rc.record(segShape, 1), rc.record(taskShape, 1))
	rc.openAt(w.segs[len(w.segs)-1], actStage)
}

// Join ends the running sequence — a forked task that returned, or a
// continuation at its Join — and starts the next stage of the sequence it
// returns to.  The root's Join ends the computation.
func (w *Writer) Join() {
	w.rc.close()
	w.segs = w.segs[:len(w.segs)-1]
	if n := len(w.segs); n > 0 {
		w.rc.openAt(w.segs[n-1], actStage)
	}
}

// Tape returns the tape of the computation, whose root has joined.
func (w *Writer) Tape() *Tape {
	if len(w.segs) != 0 {
		panic("core: tape of a computation still running")
	}
	return w.rc.tape()
}

// R reads the word at addr.
func (w *Writer) R(addr mem.Addr) int64 {
	w.rc.access(nil, addr, false)
	return w.rc.space.Load(addr)
}

// W writes the word at addr.
func (w *Writer) W(addr mem.Addr, v int64) {
	w.rc.access(nil, addr, true)
	w.rc.space.Store(addr, v)
}

// Op charges n units of pure computation.
func (w *Writer) Op(n int64) { w.rc.op(n) }

// AllocArray reserves an n-word array, as Ctx.AllocArray does.
func (w *Writer) AllocArray(n int64) mem.Array {
	w.Op(1)
	return mem.NewArray(w.rc.space, n)
}

// --- Recording -------------------------------------------------------------

// recorder writes a tape while the engine runs a computation live, or a
// Writer runs one serially.  The engine reports each task it creates from a
// node (staged, forked) and brackets every action (begin, end); the Ctx
// reports the accesses and charges in between.  A nil recorder ignores all
// of it.
type recorder struct {
	e     *Engine // the engine running the computation; nil under a Writer
	space *mem.Space
	// inputs and heapStart are the space's size when the computation
	// started and once the execution stacks were reserved: the words below
	// inputs are the builder's, those from heapStart on the actions'.
	inputs, heapStart mem.Addr

	pages  [][]byte // the full pages
	buf    []byte   // the page being written
	leaves []uint32
	// tail is, per task, where the position of its next segment goes (a
	// range's: its first leaf).
	tail   []uint32
	allocs []mem.Addr // where each allocating action's allocation starts
	shapes []shape
	err    error

	// The action being recorded: its kind and task, the space's size when
	// it began, the allocation it made (-1: none found yet), the charges
	// not yet written (consecutive Ops merge), and the previous input word
	// and heap symbol the deltas run from.
	kind     int
	tid      int32
	wm       mem.Addr
	alloc    int32
	ops      int64
	in, heap int64

	recent [4]int32 // the allocations allocOf found last, most recent first (-1: none)
}

func newRecorder(space *mem.Space, inputs, heapStart mem.Addr) *recorder {
	return &recorder{space: space, inputs: inputs, heapStart: heapStart,
		buf: make([]byte, 0, pageSize), recent: [4]int32{-1, -1, -1, -1}}
}

// tape returns what the recorder wrote as a Tape.
func (rc *recorder) tape() *Tape {
	pages := append(rc.pages, append([]byte(nil), rc.buf...)) // the last page without its spare room
	return &Tape{b: rc.space.BlockWords(), inputs: rc.inputs, allocs: len(rc.allocs),
		pages: pages, leaves: rc.leaves, shapes: rc.shapes}
}

func (rc *recorder) begin(r *rec, kind int) {
	if rc != nil {
		rc.open(r, kind)
	}
}

func (rc *recorder) end() {
	if rc != nil {
		rc.close()
	}
}

func (rc *recorder) staged(par, child *rec) {
	if rc != nil {
		if par != nil {
			rc.buf[len(rc.buf)-1] = 1
		}
		rc.task(child)
	}
}

func (rc *recorder) forked(par, left, right *rec) {
	if rc != nil {
		var kids byte
		if left != nil {
			kids |= 1
		}
		if right != nil {
			kids |= 2
		}
		if kids == 0 {
			return
		}
		rc.children(par.tid, kids)
		if left != nil {
			rc.task(left)
		}
		if right != nil {
			rc.task(right)
		}
	}
}

// children says the head just closed is followed by the children the bits
// of kids name, and leaves room for the position of task tid's join.
func (rc *recorder) children(tid int32, kids byte) {
	rc.buf[len(rc.buf)-1] = kids
	rc.tail[tid] = rc.pos()
	rc.buf = append(rc.buf, 0, 0, 0, 0)
}

func (rc *recorder) open(r *rec, kind int) {
	if kind == actLeaf {
		rc.leaves[rc.tail[r.tid]+uint32(r.lo-r.node.Range.Lo)] = rc.pos()
		rc.act(r.tid, kind)
		return
	}
	rc.openAt(r.tid, kind)
}

// openAt opens an action of task tid other than a range leaf.
func (rc *recorder) openAt(tid int32, kind int) {
	rc.patch(rc.tail[tid], rc.pos())
	rc.act(tid, kind)
}

func (rc *recorder) act(tid int32, kind int) {
	rc.kind, rc.tid = kind, tid
	rc.wm = rc.space.Size()
	rc.alloc = -1
	rc.in, rc.heap = 0, 0
}

// closeRoom is what close and the forked or staged call after it may write:
// the pending charges, the allocation, the stream's end, the children's
// byte and position, and two task records.
const closeRoom = 3*binary.MaxVarintLen64 + 6 + 2*maxRecord

func (rc *recorder) close() {
	rc.reserve(closeRoom)
	rc.flush()
	if grown := rc.space.Size() - rc.wm; grown > 0 {
		if rc.alloc < 0 {
			rc.newAlloc()
		}
		rc.put(uint64(grown)<<3 | opAlloc)
		rc.put(uint64(rc.alloc))
	}
	rc.buf = append(rc.buf, 0)
	switch rc.kind {
	case actHead:
		rc.buf = append(rc.buf, 0) // no children, unless forked says so
	case actStage:
		rc.tail[rc.tid] = rc.pos()
		rc.buf = append(rc.buf, 0, 0, 0, 0, 0) // no stage root, unless staged says so
	}
	if rc.e != nil && rc.held() > tapeBudget {
		rc.refuse(errOverBudget)
	}
}

// pos returns the tape position of the next byte written.
func (rc *recorder) pos() uint32 { return uint32(len(rc.pages))<<pageBits | uint32(len(rc.buf)) }

func (rc *recorder) patch(at, v uint32) {
	p := rc.buf
	if pg := int(at >> pageBits); pg < len(rc.pages) {
		p = rc.pages[pg]
	}
	binary.LittleEndian.PutUint32(p[at&(pageSize-1):], v)
}

// held is the bytes the recording holds.
func (rc *recorder) held() int64 {
	return int64(len(rc.pages))*pageSize + int64(len(rc.buf)) +
		4*int64(len(rc.leaves)+len(rc.tail)) + 8*int64(len(rc.allocs))
}

// refuse drops the recording; the run goes on live.  A Writer's run cannot,
// so it panics.
func (rc *recorder) refuse(err error) {
	if rc.e == nil {
		panic(err)
	}
	rc.err = err
	rc.e.rc = nil
	for _, ps := range rc.e.ps {
		ps.ctx.rc = nil
	}
	rc.pages, rc.buf, rc.leaves, rc.tail, rc.allocs = nil, nil, nil, nil, nil
}

// maxRecord bounds the bytes of a task record: two uvarints, and four more
// or a position.
const maxRecord = 6*binary.MaxVarintLen64 + 4

// task writes the record of the task r runs, copying what the engine reads
// of its node: the node may be reused once the task completes.  The record
// follows what its parent's action wrote, which reserved room for it (the
// root's is the tape's first).
func (rc *recorder) task(r *rec) {
	n := r.node
	sh := shape{kind: kindFork, locals: n.Locals, pad: n.Pad, label: n.Label}
	if n.Seq != nil {
		sh.kind = kindSeq
	}
	rg := n.Range
	if rg == nil {
		r.tid = rc.record(sh, n.Size)
		return
	}
	sh.kind = kindRange
	first := len(rc.leaves)
	rc.put(uint64(rc.shape(sh)))
	rc.put(uint64(n.Size))
	rc.put(uint64(rg.Lo))
	rc.put(uint64(rg.Hi - rg.Lo))
	rc.put(uint64(rg.Per))
	rc.put(uint64(first))
	rc.leaves = append(rc.leaves, make([]uint32, rg.Hi-rg.Lo)...)
	r.tid = int32(len(rc.tail))
	rc.tail = append(rc.tail, uint32(first))
}

// record writes the record of a fork or sequence task and returns the
// task's index.
func (rc *recorder) record(sh shape, size int64) int32 {
	rc.put(uint64(rc.shape(sh)))
	rc.put(uint64(size))
	rc.tail = append(rc.tail, rc.pos())
	rc.buf = append(rc.buf, 0, 0, 0, 0)
	return int32(len(rc.tail) - 1)
}

// shape returns the index of a task shape.  A computation's nodes come in
// a few shapes (the EXP14 kernels have two to four), so a scan finds them.
func (rc *recorder) shape(sh shape) uint32 {
	for i, s := range rc.shapes {
		if s == sh {
			return uint32(i)
		}
	}
	rc.shapes = append(rc.shapes, sh)
	return uint32(len(rc.shapes) - 1)
}

func (rc *recorder) op(n int64) {
	if n < 0 {
		rc.refuse(fmt.Errorf("core: negative charge Op(%d)", n))
		return
	}
	rc.ops += n
}

func (rc *recorder) flush() {
	if rc.ops > 0 {
		rc.put(uint64(rc.ops+1)<<3 | opCompute)
		rc.ops = 0
	}
}

// put writes a uvarint; the caller has reserved room for it.
func (rc *recorder) put(v uint64) {
	if v < 0x80 {
		rc.buf = append(rc.buf, byte(v))
		return
	}
	rc.buf = binary.AppendUvarint(rc.buf, v)
}

// reserve makes room in the page for n more bytes of the stream being
// written, going on at a new page if they do not fit: every stream event
// reserves what it may write, so put need not, and a page always has a byte
// left for the entry that says so.
func (rc *recorder) reserve(n int) {
	if len(rc.buf)+n+1 > pageSize {
		rc.pages = append(rc.pages, append(rc.buf, 1<<3|opCompute))
		rc.buf = make([]byte, 0, pageSize)
	}
}

// Tape pages are 256 KiB: a tape grows without copying, and a small one
// wastes little of its last page, which Record trims.
const (
	pageBits = 18
	pageSize = 1 << pageBits
)

// access records an access to addr by an action of r.
func (rc *recorder) access(r *rec, addr mem.Addr, write bool) {
	rc.reserve(5 * binary.MaxVarintLen64)
	rc.flush()
	var w uint64
	if write {
		w = 1
	}
	switch {
	case addr < rc.inputs:
		rc.put(zig(addr-rc.in)<<3 | opInput | w)
		rc.in = addr
	case addr < rc.heapStart:
		d, off, ok := rc.e.stackWord(r, addr)
		if !ok {
			rc.refuse(errStackWord)
			return
		}
		rc.put(uint64(d)<<3 | opStack | w)
		rc.put(zig(off))
	default:
		k, off := rc.allocOf(addr)
		sym := int64(k)<<32 | off
		rc.put(zig(sym-rc.heap)<<3 | opHeap | w)
		rc.heap = sym
	}
}

// stackWord finds the frame of r or of an ancestor that holds addr.
func (e *Engine) stackWord(r *rec, addr mem.Addr) (d int, off int64, ok bool) {
	for ; r != nil; r, d = r.parent, d+1 {
		if r.frame == noFrame {
			continue
		}
		end := r.localBase + int64(r.node.Locals)
		if addr >= end-e.frameWords(r) && addr < end {
			return d, addr - r.localBase, true
		}
	}
	return 0, 0, false
}

// allocOf returns the allocation holding the heap word addr and its offset
// there.  Allocations tile the heap in the order they were made: the
// running action's starts where the space ended when the action began, and
// where the action first touches it a replay learns its base.
func (rc *recorder) allocOf(addr mem.Addr) (int32, int64) {
	if addr >= rc.wm {
		if rc.alloc < 0 {
			rc.newAlloc()
			rc.put(opAlloc)
			rc.put(uint64(rc.alloc))
		}
		return rc.alloc, addr - rc.wm
	}
	c := rc.allocs
	for i, k := range rc.recent {
		if k >= 0 && addr >= c[k] && (int(k)+1 == len(c) || addr < c[k+1]) {
			copy(rc.recent[1:i+1], rc.recent[:i])
			rc.recent[0] = k
			return k, addr - c[k]
		}
	}
	lo, hi := 0, len(c) // the last allocation starting at or below addr
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); c[mid] <= addr {
			lo = mid
		} else {
			hi = mid
		}
	}
	copy(rc.recent[1:], rc.recent[:])
	rc.recent[0] = int32(lo)
	return int32(lo), addr - c[lo]
}

func (rc *recorder) newAlloc() {
	rc.alloc = int32(len(rc.allocs))
	rc.allocs = append(rc.allocs, rc.wm)
}

func zig(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// --- Replay ----------------------------------------------------------------

// player replays a tape on one engine.  The nodes it hands the engine are
// pooled: a task's node returns to the pool at its parent's next action —
// the join of a fork, the next stage of a sequence — which runs only after
// the task completed, and the engine reads a node only while its task is
// live.  So a replay allocates nodes for the tasks live at once, not one
// per task.
type player struct {
	t     *Tape
	eng   *Engine    // the engine running the replay, from its first action on
	bases []mem.Addr // where each allocation landed in this run
	free  *playNode
}

// bind ties the replay to the engine running its first action.
func (pl *player) bind(e *Engine) {
	if pl.eng != nil {
		panic("core: a replay's root ran on a second engine")
	}
	if t := pl.t; e.inputs != t.inputs || e.m.Cfg.B != t.b {
		panic(fmt.Sprintf("core: replay of a tape of %d input words at B=%d on an engine over %d words at B=%d",
			t.inputs, t.b, e.inputs, e.m.Cfg.B))
	}
	pl.eng = e
}

// playNode is the node of one task being replayed, and where on the tape
// its next action is.
type playNode struct {
	Node
	pl   *player
	pos  int          // the task's next segment (0: none)
	kids [2]*playNode // the nodes the task's next action releases
	base int          // a range's first leaf in t.leaves
	rng  Range
	fork func(*Ctx) (*Node, *Node)
	join func(*Ctx)
	seq  func(*Ctx, int) *Node
	next *playNode // pool link
}

// node returns a node running the task whose record is at pos, and the
// position after the record.
func (pl *player) node(pos int) (*playNode, int) {
	pn := pl.free
	if pn == nil {
		pn = &playNode{pl: pl}
		pn.fork, pn.join, pn.seq, pn.rng.Body = pn.doFork, pn.doJoin, pn.doSeq, pn.doLeaf
	} else {
		pl.free = pn.next
	}
	buf, i := pl.t.page(pos)
	base := pos - i
	var id, size uint64
	id, i = uvarint(buf, i)
	size, i = uvarint(buf, i)
	sh := &pl.t.shapes[id]
	pn.Node = Node{Size: int64(size), Locals: sh.locals, Pad: sh.pad, Label: sh.label}
	pn.kids = [2]*playNode{}
	switch sh.kind {
	case kindFork:
		pn.Fork, pn.Join = pn.fork, pn.join
	case kindSeq:
		pn.Seq, pn.Join = pn.seq, pn.join
	case kindRange:
		var lo, n, per, first uint64
		lo, i = uvarint(buf, i)
		n, i = uvarint(buf, i)
		per, i = uvarint(buf, i)
		first, i = uvarint(buf, i)
		pn.rng.Lo, pn.rng.Hi, pn.rng.Per = int64(lo), int64(lo+n), int64(per)
		pn.base = int(first)
		pn.Range = &pn.rng
		return pn, base + i
	}
	pn.pos = int(binary.LittleEndian.Uint32(buf[i:]))
	return pn, base + i + 4
}

func (pl *player) release(pn *playNode) {
	if pn != nil {
		pn.next, pl.free = pl.free, pn
	}
}

func (pn *playNode) doFork(c *Ctx) (*Node, *Node) {
	pl := pn.pl
	pos := pl.play(c, pn.pos)
	buf, i := pl.t.page(pos)
	kids := buf[i]
	pn.pos = 0
	if kids == 0 {
		return nil, nil
	}
	pn.pos = int(binary.LittleEndian.Uint32(buf[i+1:]))
	pos += 5
	var left, right *Node
	if kids&1 != 0 {
		pn.kids[0], pos = pl.node(pos)
		left = &pn.kids[0].Node
	}
	if kids&2 != 0 {
		pn.kids[1], _ = pl.node(pos)
		right = &pn.kids[1].Node
	}
	return left, right
}

func (pn *playNode) doJoin(c *Ctx) {
	pl := pn.pl
	if pn.pos != 0 {
		pl.play(c, pn.pos)
	}
	pl.release(pn.kids[0])
	pl.release(pn.kids[1])
	pn.kids = [2]*playNode{}
}

func (pn *playNode) doSeq(c *Ctx, _ int) *Node {
	pl := pn.pl
	pl.release(pn.kids[0])
	pn.kids[0] = nil
	pos := pl.play(c, pn.pos)
	buf, i := pl.t.page(pos)
	pn.pos = int(binary.LittleEndian.Uint32(buf[i:]))
	if buf[i+4] == 0 {
		return nil
	}
	pn.kids[0], _ = pl.node(pos + 5)
	return &pn.kids[0].Node
}

// page returns the page holding tape position pos, and pos's offset in it.
func (t *Tape) page(pos int) ([]byte, int) { return t.pages[pos>>pageBits], pos & (pageSize - 1) }

func (pn *playNode) doLeaf(c *Ctx, i int64) {
	pn.pl.play(c, int(pn.pl.t.leaves[pn.base+int(i-pn.rng.Lo)]))
}

// play re-issues the stream at pos under c and returns the position after
// it.
func (pl *player) play(c *Ctx, pos int) int {
	if c.eng != pl.eng {
		pl.bind(c.eng)
	}
	pg := pos >> pageBits
	buf, i := pl.t.page(pos)
	var in, heap int64
	for {
		var h uint64
		h, i = uvarint(buf, i)
		v := h >> 3
		switch code := h & 7; code {
		case opCompute:
			switch v {
			case 0:
				return pg<<pageBits | i
			case 1:
				pg++
				buf, i = pl.t.pages[pg], 0
			default:
				c.Op(int64(v - 1))
			}
		case opAlloc:
			var k uint64
			k, i = uvarint(buf, i)
			pl.bases[k] = c.eng.m.Space.Alloc(int64(v))
		case opInput, opInput | 1:
			in += unzig(v)
			c.touch(in, code&1 != 0)
		case opHeap, opHeap | 1:
			heap += unzig(v)
			c.touch(pl.bases[heap>>32]+heap&(1<<32-1), code&1 != 0)
		default: // opStack
			var z uint64
			z, i = uvarint(buf, i)
			r := c.rec
			for range v {
				r = r.parent
			}
			c.touch(r.localBase+unzig(z), code&1 != 0)
		}
	}
}

// uvarint decodes the uvarint at b[i:] and returns it and the position
// after it.
func uvarint(b []byte, i int) (uint64, int) {
	x := b[i]
	if x < 0x80 {
		return uint64(x), i + 1
	}
	if y := b[i+1]; y < 0x80 {
		return uint64(x&0x7f) | uint64(y)<<7, i + 2
	}
	v, n := binary.Uvarint(b[i:])
	return v, i + n
}
