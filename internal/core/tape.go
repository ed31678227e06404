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
// (internal/fj does), and Walk reads a tape's tree and streams with no
// engine either, for measures of the computation itself (internal/trace).
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
// stack word outside the running task's ancestors' frames has no symbol; a
// replay inside the computation is not recorded; and a recording is dropped
// once it holds more than tapeBudget bytes.  A recording of a computation
// that is a replay as a whole is that replay's tape, which Record returns as
// it is.

// tapeBudget caps the bytes a recording holds.
var tapeBudget int64 = 64 << 20

var (
	errStackWord    = errors.New("core: a task accessed a stack word outside its ancestors' frames")
	errOverBudget   = errors.New("core: the recording outgrew its budget")
	errNestedReplay = errors.New("core: a replay ran inside the recorded computation")
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

// TaskKind is the kind of a task on a tape.
type TaskKind uint8

// The kinds of task: a fork (or leaf), a sequence, and a range task, which
// splits its range in halves down to single indices as the engine does.
const (
	KindFork TaskKind = iota
	KindSeq
	KindRange
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
// The tape is written as the run goes, in pages that are never copied, with
// 4-byte little-endian positions (page<<pageBits | offset) patched in where
// a later action continues a task.  The first page is firstPage bytes and
// each next one twice the last, up to pageSize, so a small tape holds little
// and a large one is nearly all pages of pageSize.  Only a stream runs on
// from one page to the next; everything else lies in one page.
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
	kind        TaskKind
	locals, pad int32
	label       string
}

// Inputs returns the number of words the recorded computation's builder
// allocated.  A replay runs on a fresh machine that has allocated exactly
// these, as one allocation, before its engine is built.
func (t *Tape) Inputs() int64 { return t.inputs }

// BlockWords returns the block size B of the machine the tape was recorded
// on.
func (t *Tape) BlockWords() int { return t.b }

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
// allocated its inputs in.  For the root of a replay (Tape.Root) it runs
// the replay and returns the replayed tape.
func (e *Engine) Record(root *Node) (Result, *Tape, error) {
	rc := newRecorder(e.m.Space, e.inputs, e.heapStart)
	rc.e = e
	e.rc = rc
	for _, ps := range e.ps {
		ps.ctx.rc = rc
	}
	res := e.Run(root)
	switch {
	case rc.err != nil:
		return res, nil, rc.err
	case rc.replayed != nil:
		return res, rc.replayed, nil
	}
	t := rc.tape()
	rc.detach()
	return res, t, nil
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
	pl.root, _ = pl.node(0)
	return &pl.root.Node
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
	pairShape = shape{kind: KindFork, label: "fj·fork"}
	segShape  = shape{kind: KindSeq, label: "fj·seg"}
	taskShape = shape{kind: KindSeq, label: "fj·task"}
)

// NewWriter starts the tape of a computation over what space has
// allocated: its root task, a sequence of the given size and label, runs
// first.
func NewWriter(space *mem.Space, size int64, label string) *Writer {
	w := &Writer{rc: newRecorder(space, space.Size(), space.Size())}
	w.segs = append(w.segs, w.rc.record(shape{kind: KindSeq, label: label}, size))
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
	full   int64    // their bytes
	buf    []byte   // the page being written
	leaves []uint32
	// tail is, per task, where the position of its next segment goes (a
	// range's: its first leaf).
	tail   []uint32
	allocs []mem.Addr // where each allocating action's allocation starts
	shapes []shape
	err    error
	// replayed is the tape of the replay the engine runs as its whole
	// computation, which the recording stopped for.
	replayed *Tape

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
		buf: make([]byte, 0, firstPage), recent: [4]int32{-1, -1, -1, -1}}
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
	return rc.full + int64(len(rc.buf)) +
		4*int64(len(rc.leaves)+len(rc.tail)) + 8*int64(len(rc.allocs))
}

// refuse drops the recording; the run goes on live.  A Writer's run cannot,
// so it panics.
func (rc *recorder) refuse(err error) {
	if rc.e == nil {
		panic(err)
	}
	rc.err = err
	rc.detach()
}

// detach stops the recording; the engine runs on without it.
func (rc *recorder) detach() {
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
	sh := shape{kind: KindFork, locals: n.Locals, pad: n.Pad, label: n.Label}
	if n.Seq != nil {
		sh.kind = KindSeq
	}
	rg := n.Range
	if rg == nil {
		r.tid = rc.record(sh, n.Size)
		return
	}
	sh.kind = KindRange
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
	if len(rc.buf)+n+1 > cap(rc.buf) {
		rc.pages = append(rc.pages, append(rc.buf, 1<<3|opCompute))
		rc.full += int64(len(rc.buf)) + 1
		rc.buf = make([]byte, 0, min(2*cap(rc.buf), pageSize))
	}
}

// Tape pages are at most 256 KiB, from a first page of 4 KiB: a tape grows
// without copying, and wastes little of its last page, which Record trims.
const (
	pageBits  = 18
	pageSize  = 1 << pageBits
	firstPage = 4 << 10
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

// --- Replay and walk -------------------------------------------------------

// player reads a tape for one run of it: a replay on an engine, or a walk.
// The nodes it hands out are pooled: a task's node returns to the pool at
// its parent's next action — the join of a fork, the next stage of a
// sequence — which runs only after the task completed, and the engine reads
// a node only while its task is live.  So a run allocates nodes for the
// tasks live at once, not one per task.
type player struct {
	t     *Tape
	root  *playNode
	eng   *Engine    // the engine running the replay, from its first action on
	bases []mem.Addr // where each allocation landed in this run
	free  *playNode
	// A walk's visitor (nil in a replay), and the task whose action runs.
	v  Visitor
	id int
}

// bind ties the replay to the engine running its first action, under c.  An
// engine that is recording stops, and takes the tape as its recording, if
// the replay is its whole computation; it refuses the recording otherwise.
func (pl *player) bind(c *Ctx) {
	e := c.eng
	if pl.eng != nil {
		panic("core: a replay's root ran on a second engine")
	}
	if t := pl.t; e.inputs != t.inputs || e.m.Cfg.B != t.b {
		panic(fmt.Sprintf("core: replay of a tape of %d input words at B=%d on an engine over %d words at B=%d",
			t.inputs, t.b, e.inputs, e.m.Cfg.B))
	}
	pl.eng = e
	if rc := e.rc; rc != nil {
		top := c.rec
		for top.parent != nil {
			top = top.parent
		}
		if top.node != &pl.root.Node {
			rc.refuse(errNestedReplay)
			return
		}
		rc.replayed = pl.t
		rc.detach()
	}
}

// playNode is the node of one task being run, and where on the tape its
// next action is.
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
	case KindFork:
		pn.Fork, pn.Join = pn.fork, pn.join
	case KindSeq:
		pn.Seq, pn.Join = pn.seq, pn.join
	case KindRange:
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

func (pn *playNode) doLeaf(c *Ctx, i int64) {
	pn.pl.play(c, int(pn.pl.t.leaves[pn.base+int(i-pn.rng.Lo)]))
}

// play reads the stream at pos, the one reader of streams, and returns the
// position after it.  A replay (c non-nil) re-issues each entry under c; a
// walk reports each to pl.v as task pl.id's.
func (pl *player) play(c *Ctx, pos int) int {
	if c != nil && c.eng != pl.eng {
		pl.bind(c)
	}
	pg := pos >> pageBits
	buf, i := pl.t.page(pos)
	var in, heap int64
	for {
		var h uint64
		h, i = uvarint(buf, i)
		code, u := h&7, h>>3
		write := code&1 != 0
		switch code {
		case opCompute:
			switch {
			case u == 0:
				return pg<<pageBits | i
			case u == 1:
				pg++
				buf, i = pl.t.pages[pg], 0
			case c != nil:
				c.Op(int64(u - 1))
			default:
				pl.v.Op(pl.id, int64(u-1))
			}
		case opAlloc:
			var k uint64
			k, i = uvarint(buf, i)
			if c != nil {
				pl.bases[k] = c.eng.m.Space.Alloc(int64(u))
			}
		case opInput, opInput | 1:
			if in += unzig(u); c != nil {
				c.touch(in, write)
			} else {
				pl.v.Access(pl.id, Word{Kind: InputWord, Off: in}, write)
			}
		case opHeap, opHeap | 1:
			if heap += unzig(u); c != nil {
				c.touch(pl.bases[heap>>32]+heap&(1<<32-1), write)
			} else {
				pl.v.Access(pl.id, Word{Kind: HeapWord, K: int(heap >> 32), Off: heap & (1<<32 - 1)}, write)
			}
		default: // opStack
			var z uint64
			z, i = uvarint(buf, i)
			if c == nil {
				pl.v.Access(pl.id, Word{Kind: StackWord, K: int(u), Off: unzig(z)}, write)
				break
			}
			r := c.rec
			for range u {
				r = r.parent
			}
			c.touch(r.localBase+unzig(z), write)
		}
	}
}

// page returns the page holding tape position pos, and pos's offset in it.
func (t *Tape) page(pos int) ([]byte, int) { return t.pages[pos>>pageBits], pos & (pageSize - 1) }

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

// --- Walking ---------------------------------------------------------------

// WalkTask is a task as Walk visits it.  IDs number the tasks in visiting
// order from the root's 0, whose Parent is -1; Prio is the priority the
// engine gives the task, and a range task's Size is its indices' share.
type WalkTask struct {
	ID, Parent, Prio int
	Kind             TaskKind
	Size             int64
	Label            string
}

// Word is an accessed word by its symbol on the tape (see Record): an input
// word's address Off, a heap word's allocation K and offset Off, or a stack
// word's offset Off from the locals of the accessing task's K-th ancestor.
type Word struct {
	Kind WordKind
	K    int
	Off  int64
}

// WordKind says which of the three a Word is.
type WordKind uint8

const (
	InputWord WordKind = iota
	HeapWord
	StackWord
)

// Visitor receives what Walk reads off a tape: each task before any of its
// actions, and each access and charge of an action of task id.
type Visitor interface {
	Task(t WalkTask)
	Access(id int, w Word, write bool)
	Op(id int, n int64)
}

// Walk visits t's tasks and their actions with no engine: it runs the
// nodes of a replay of t serially, as one core runs them — a task's head or
// stage, its children (left first) or stage root, its join; a range task
// split in halves down to single indices — and their streams go to v.
func (t *Tape) Walk(v Visitor) {
	pl := &player{t: t, v: v}
	pl.root, _ = pl.node(0)
	(&walker{pl: pl}).node(&pl.root.Node, -1, 0)
}

type walker struct {
	pl  *player
	ids int
}

// node visits the task running n — the whole range of a range node — and
// its subtree, a child of task parent at priority prio, and returns the
// highest priority in the subtree.
func (w *walker) node(n *Node, parent, prio int) int {
	var lo, hi int64
	if rg := n.Range; rg != nil {
		lo, hi = rg.Lo, rg.Hi
	}
	return w.task(n, lo, hi, parent, prio)
}

// task is node for the task covering [lo, hi) of a range node.
func (w *walker) task(n *Node, lo, hi int64, parent, prio int) int {
	t := WalkTask{ID: w.ids, Parent: parent, Prio: prio, Kind: KindFork, Size: n.Size, Label: n.Label}
	switch {
	case n.Range != nil:
		t.Kind, t.Size = KindRange, (hi-lo)*n.Range.Per
	case n.Seq != nil:
		t.Kind = KindSeq
	}
	w.ids++
	w.pl.v.Task(t)
	top := prio
	w.pl.id = t.ID
	switch {
	case t.Kind == KindRange && hi-lo == 1:
		n.Range.Body(nil, lo)
		return top
	case t.Kind == KindRange:
		mid := lo + (hi-lo)/2
		return max(w.task(n, lo, mid, t.ID, prio+1), w.task(n, mid, hi, t.ID, prio+1))
	case t.Kind == KindSeq:
		// A stage ranks below everything the stages before it generated.
		for i := 0; ; i++ {
			w.pl.id = t.ID
			c := n.Seq(nil, i)
			if c == nil {
				break
			}
			top = max(top, w.node(c, t.ID, top+1))
		}
	default:
		l, r := n.Fork(nil)
		for _, c := range [2]*Node{l, r} {
			if c != nil {
				top = max(top, w.node(c, t.ID, prio+1))
			}
		}
	}
	w.pl.id = t.ID
	n.Join(nil)
	return top
}
