// Package rt is a real-parallelism companion to the simulator: a
// goroutine-based fork-join work-stealing runtime whose own data layout
// follows the paper's false-sharing discipline.
//
// Each worker owns a Chase–Lev lock-free deque (deque.go): the owner pushes
// and pops at the bottom with plain atomic stores, thieves CAS the top — the
// steal orientation of Section 2, with no mutex anywhere on the task path.
// A thief picks victims uniformly among the other p−1 workers: the
// randomized work stealer whose steal and block-delay bounds arxiv
// 1103.4142 proves.  The paper's priority scheduler (PWS) lives in the
// simulator (internal/sched), where its steal counts are measured.
//
// All hot mutable per-worker state — the deque's top and bottom indices and
// the sharded steal/attempt/executed counters — lives in one pool-owned
// block whose layout is selected at construction: LayoutPadded aligns every
// worker's cells to 64-byte cache-line boundaries (top and bottom each get a
// private line, mirroring the paper's block-size-B padding of §4.7), while
// LayoutCompact packs all workers' cells adjacently so that independent
// writes share lines.  Task frames are likewise slab-allocated either
// line-disjoint (a two-line stride each) or packed.  The compact layout
// exists only as the "unpadded"
// ablation arm of EXP13, which demonstrates the paper's false-sharing
// penalty on real hardware; NewPool always uses LayoutPadded.
//
// The workers are long-lived — p cores stealing from each other in steady
// state, the pool the RWS analysis assumes.  They start on the pool's first
// Submit and exit in Close; in between any number of roots may be in flight.
// Submit appends a root to a pool-level injection queue and returns; Run is
// Submit plus a wait on a channel the root closes.  A worker's main loop
// looks for work in the order own deque → injected roots → steal, so a worker
// that runs dry starts a new root before it goes stealing and a small
// computation is not parked behind a large one that keeps every deque
// stocked.  A joiner helping inside Ctx.Join never takes a root: its join
// latency must not become an unrelated root's run time.
//
// Nobody busy-waits.  An idle worker (or a joiner whose fork is still in
// flight) spins briefly, then parks on a condition-variable eventcount: it
// snapshots the pool's wake sequence, announces itself in an idler count,
// re-checks every work source — deque, injection queue, every victim — and
// only then sleeps.  Producers bump the sequence and broadcast after
// injecting a root, pushing a task or completing one — but only when the
// idler count is nonzero, so the fork/join fast path costs one atomic load.
//
// The simulator in internal/core measures the paper's cache and block-miss
// quantities; this package demonstrates the same computations running with
// genuine parallelism and feeds the wall-clock experiments (EXP13, EXP16).
// Its surface is what internal/fj lowers onto — Submit/Run/Close and
// Ctx.Fork/Join/Scratch; parallel loops and reductions are fj's.
package rt

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/arena"
)

// Policy names the victim rule for steals.  Random is the only one; the
// type survives so NewPool keeps the signature the benchmark programs under
// benchmark/ call it with.
type Policy int

// Random picks victims uniformly at random among the other workers (RWS).
const Random Policy = 0

// Layout selects how the pool lays out hot per-worker state and task frames.
type Layout int

const (
	// LayoutPadded aligns every worker's hot state to private cache lines
	// and gives every task frame its own line.  The default.
	LayoutPadded Layout = iota
	// LayoutCompact packs all workers' hot state and task frames densely so
	// independent writes share cache lines — the "unpadded" arm of the
	// false-sharing ablation (EXP13).  Functionally identical, slower under
	// real concurrent writes.
	LayoutCompact
)

func (l Layout) String() string {
	if l == LayoutCompact {
		return "compact"
	}
	return "padded"
}

// cacheLine is the coherence granularity the padded layout targets — the
// real-hardware analogue of the paper's block size B.
const cacheLine = 64

const wordsPerLine = cacheLine / 8

// Per-worker cells in the pool's shared state block, in block order.
const (
	cellTop = iota
	cellBottom
	cellSteals
	cellAttempts
	cellExecuted
	numCells
)

// cells is one worker's view into the state block.
type cells struct {
	top, bottom, steals, attempts, executed *atomic.Int64
}

// newState allocates the pool-wide worker-state block and carves one cells
// view per worker.  The base is always rotated to a cache-line boundary so
// the layout (padded: three private lines per worker; compact: numCells
// adjacent words per worker) is deterministic rather than at the mercy of
// the allocator.  Rebasing is GC-safe here precisely because atomic.Int64
// holds no pointers; task slabs cannot play this trick (see paddedTask).
func newState(p int, layout Layout) ([]atomic.Int64, []cells) {
	stride := numCells
	offs := [numCells]int{cellTop, cellBottom, cellSteals, cellAttempts, cellExecuted}
	if layout == LayoutPadded {
		// Line 0: top (thief-CASed).  Line 1: bottom (owner-stored).
		// Line 2: the owner-written counters.
		stride = 3 * wordsPerLine
		offs = [numCells]int{0, wordsPerLine, 2 * wordsPerLine, 2*wordsPerLine + 1, 2*wordsPerLine + 2}
	}
	buf := make([]atomic.Int64, p*stride+wordsPerLine)
	base := 0
	for uintptr(unsafe.Pointer(&buf[base]))%cacheLine != 0 {
		base++
	}
	cs := make([]cells, p)
	for i := range cs {
		blk := buf[base+i*stride:]
		cs[i] = cells{
			top:      &blk[offs[cellTop]],
			bottom:   &blk[offs[cellBottom]],
			steals:   &blk[offs[cellSteals]],
			attempts: &blk[offs[cellAttempts]],
			executed: &blk[offs[cellExecuted]],
		}
	}
	return buf, cs
}

// task is one forked frame: the body, the done flag the joiner and thieves
// synchronize on, and the Ctx the executing worker hands the body.
// Embedding the Ctx in the frame keeps the execution path allocation-free:
// &t.ctx escapes into fn, but the frame is slab memory already, so no
// per-task heap object is created.  Only the executor writes
// ctx, and the joiner reads the frame only after the done acquire, so the
// sharing is as ordered as done itself.
type task struct {
	fn   func(*Ctx)
	done atomic.Uint32
	ctx  Ctx
}

func (t *task) isDone() bool { return t.done.Load() != 0 }

// taskFootprint mirrors task field-for-field (every func value is one
// pointer) without referencing Ctx, so taskSize can be a constant without
// creating a type cycle task → Ctx → worker → arena → paddedTask → task.
// TestTaskFramePadding asserts the two sizes agree.
type taskFootprint struct {
	fn   func()
	done atomic.Uint32
	ctx  struct{ w uintptr }
}

// taskSize is the unpadded task frame footprint.
const taskSize = unsafe.Sizeof(taskFootprint{})

// paddedTask strides a task frame across two full cache lines so the done
// flag a thief writes never shares a line with a sibling frame the owner is
// polling.  Two lines rather than one because Go guarantees only 8-byte
// alignment for a slab's base and the GC's pointer bitmap forbids rebasing
// typed memory that holds pointers (fn is one): with a 2-line stride,
// consecutive frames are line-disjoint wherever the base lands, and the
// spare line also defeats adjacent-line prefetching.
type paddedTask struct {
	task
	_ [2*cacheLine - taskSize%cacheLine]byte
}

// arenaSlab is how many task frames one slab holds.
const arenaSlab = 256

// taskArena slab-allocates task frames with layout-controlled stride.
// Owner-only; slots are used exactly once (slabs are replaced, never
// rewound, so a stale pointer read by a slow thief stays frozen forever).
type taskArena struct {
	padded bool
	slabP  []paddedTask
	slabC  []task
	used   int
}

func (a *taskArena) alloc(fn func(*Ctx)) *task {
	var t *task
	if a.padded {
		if a.used >= len(a.slabP) {
			a.slabP, a.used = make([]paddedTask, arenaSlab), 0
		}
		t = &a.slabP[a.used].task
	} else {
		if a.used >= len(a.slabC) {
			a.slabC, a.used = make([]task, arenaSlab), 0
		}
		t = &a.slabC[a.used]
	}
	a.used++
	t.fn = fn
	return t
}

// Pool is a fixed-size work-stealing pool of long-lived workers.
//
// The four pool-wide hot words lead the struct, each padded onto a private
// cache line (the same §4.7 discipline the per-worker state block applies
// via newState): stop and queued are loaded in every scheduling loop, idlers
// on every fork/completion fast path, and seq on every park.  Letting them
// share a line would make each writer invalidate the others' readers —
// exactly the false-sharing delay hbplint's falseshare analyzer now rejects
// statically.
type Pool struct {
	stop atomic.Bool // set once, by Close
	_    [cacheLine - 1]byte
	// Eventcount for parking: idlers counts workers that announced
	// idleness; seq is bumped (under mu) on every wake-worthy event.
	idlers atomic.Int32
	_      [cacheLine - 4]byte
	seq    atomic.Uint64
	_      [cacheLine - 8]byte
	// queued is len(inject), readable without mu so a worker checks the
	// injection queue with a single load.
	queued atomic.Int64
	_      [cacheLine - 8]byte

	workers []*worker
	layout  Layout
	wg      sync.WaitGroup

	state []atomic.Int64 // keeps the worker-state block alive

	mu      sync.Mutex // guards the eventcount sleep, inject and started
	cond    *sync.Cond
	inject  []*task // submitted roots no worker has taken yet, FIFO
	started bool    // the worker goroutines exist
}

type worker struct {
	id      int
	pool    *Pool
	st      cells
	dq      deque
	rng     *rand.Rand   // owner-only: victim sampling
	arena   taskArena    // owner-only: task frames this worker forks
	scratch *arena.Shard // owner-only: scratch slabs for kernel allocations
}

// Ctx is passed to every task body; it identifies the executing worker.
type Ctx struct{ w *worker }

// Handle joins a forked task.
type Handle struct{ t *task }

// NewPool creates a pool of p workers with the padded (false-sharing-aware)
// layout.  Pass 0 for GOMAXPROCS.  policy is always Random (see Policy).
func NewPool(p int, policy Policy) *Pool {
	return NewPoolLayout(p, LayoutPadded)
}

// NewPoolLayout creates a pool with an explicit state/task layout.  Use
// LayoutCompact only to measure the false-sharing penalty it exists to
// demonstrate.
func NewPoolLayout(p int, layout Layout) *Pool {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	pool := &Pool{layout: layout}
	pool.cond = sync.NewCond(&pool.mu)
	var blocks []cells
	pool.state, blocks = newState(p, layout)
	for i := 0; i < p; i++ {
		w := &worker{
			id:      i,
			pool:    pool,
			st:      blocks[i],
			rng:     rand.New(rand.NewSource(int64(i)*7919 + 17)),
			scratch: arena.NewShard(),
		}
		w.arena.padded = layout == LayoutPadded
		w.dq.init(w.st.top, w.st.bottom)
		pool.workers = append(pool.workers, w)
	}
	return pool
}

// Layout reports the pool's state/task layout.
func (p *Pool) Layout() Layout { return p.layout }

// Steals reports successful steals so far, summed over the per-worker
// sharded counters (each thief increments only its own cache line).
func (p *Pool) Steals() int64 { return p.sum(func(c cells) *atomic.Int64 { return c.steals }) }

// StealAttempts reports victim probes, successful or not.
func (p *Pool) StealAttempts() int64 {
	return p.sum(func(c cells) *atomic.Int64 { return c.attempts })
}

// Executed reports tasks started (forks plus one per root), accumulated
// over the pool's life.  The count ticks when a task starts, so once every
// submitted root has completed it is exactly the tasks run to completion.
func (p *Pool) Executed() int64 { return p.sum(func(c cells) *atomic.Int64 { return c.executed }) }

func (p *Pool) sum(f func(cells) *atomic.Int64) int64 {
	var s int64
	for _, w := range p.workers {
		s += f(w.st).Load()
	}
	return s
}

// drained is the main loop's quit condition: Close was called and no
// submitted root is left waiting for a worker.
func (p *Pool) drained() bool { return p.stop.Load() && p.queued.Load() == 0 }

// wake publishes a work/completion event to parked workers.  The fast path
// is a single atomic load: the sequence bump and broadcast happen only when
// somebody announced idleness.
func (p *Pool) wake() {
	if p.idlers.Load() == 0 {
		return
	}
	p.mu.Lock()
	p.wakeLocked()
	p.mu.Unlock()
}

// wakeLocked bumps the event sequence and wakes every parked worker.  A
// broadcast, not a signal: joiners park on the same condition and take no
// roots, so a single wake-up could land on one that cannot use it.
func (p *Pool) wakeLocked() {
	p.seq.Add(1)
	p.cond.Broadcast()
}

// Submit enqueues root on the pool's injection queue and returns; the first
// Submit starts the workers.  Any number of roots may be in flight, from any
// number of goroutines.  A root must join all its forks before returning, so
// no work outlives it.  Submit on a closed pool is a programming error and
// panics rather than drop the root.
func (p *Pool) Submit(root func(*Ctx)) {
	t := &task{fn: root}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop.Load() {
		panic("rt: Submit on a closed Pool")
	}
	if !p.started {
		p.started = true
		for _, w := range p.workers {
			p.wg.Add(1)
			go w.loop()
		}
	}
	p.inject = append(p.inject, t)
	p.queued.Add(1)
	if p.idlers.Load() > 0 {
		p.wakeLocked()
	}
}

// takeRoot pops the oldest injected root, or nil.  The common empty case is
// one load of queued.
func (p *Pool) takeRoot() *task {
	if p.queued.Load() == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.inject) == 0 {
		return nil
	}
	t := p.inject[0]
	p.inject[0] = nil
	p.inject = p.inject[1:]
	p.queued.Add(-1)
	return t
}

// Run executes root to completion on the pool.  The calling goroutine parks
// on a channel the root task closes — it never spins, so running a pool as
// wide as the machine does not starve workers.
func (p *Pool) Run(root func(*Ctx)) {
	done := make(chan struct{})
	p.Submit(func(c *Ctx) {
		root(c)
		close(done)
	})
	<-done
}

// Close stops the pool: every root submitted before it still runs to
// completion, then the workers exit and Close returns.  A pool that never
// ran has no goroutines to stop.  Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.stop.Store(true)
	p.wakeLocked()
	p.mu.Unlock()
	p.wg.Wait()
}

func (w *worker) loop() {
	defer w.pool.wg.Done()
	quit := w.pool.drained
	for {
		t := w.next(quit, true)
		if t == nil {
			return
		}
		w.run(t)
	}
}

func (w *worker) run(t *task) {
	w.st.executed.Add(1)
	t.ctx = Ctx{w: w}
	t.fn(&t.ctx)
	t.done.Store(1)
	w.pool.wake()
}

// idleSpins is how many yield-and-retry rounds a worker burns before
// parking on the eventcount.
const idleSpins = 4

// find makes one pass over the worker's work sources in scheduling order:
// its own deque, then — in the main loop only (roots) — the injection queue,
// then a steal: one bounded round of random probes, or with sweep
// the exhaustive stealAny pass that precedes a park.
func (w *worker) find(roots, sweep bool) *task {
	if t := w.dq.pop(); t != nil {
		return t
	}
	if roots {
		if t := w.pool.takeRoot(); t != nil {
			return t
		}
	}
	if sweep {
		return w.pool.stealAny(w)
	}
	return w.pool.trySteal(w)
}

// next returns a runnable task, parking the worker until one appears or
// quit() reports true (pool drained for the main loop, task completion for
// a joiner).  The park protocol is: snapshot the event sequence, announce
// idleness, re-check everything, and only then sleep — any event published
// after the snapshot changes the sequence, so the sleep is never entered on
// a stale view (the idler announcement and the producers' idler check are
// ordered by Go's sequentially consistent atomics).
func (w *worker) next(quit func() bool, roots bool) *task {
	p := w.pool
	for {
		for s := 0; s <= idleSpins; s++ {
			if s > 0 {
				runtime.Gosched()
			}
			if quit() {
				return nil
			}
			if t := w.find(roots, false); t != nil {
				return t
			}
		}
		seq := p.seq.Load()
		p.idlers.Add(1)
		var t *task
		if !quit() {
			if t = w.find(roots, true); t == nil {
				p.mu.Lock()
				for p.seq.Load() == seq && !quit() {
					p.cond.Wait()
				}
				p.mu.Unlock()
			}
		}
		p.idlers.Add(-1)
		if t != nil {
			return t
		}
	}
}

// stealAny deterministically sweeps every victim once (looping only while a
// lost CAS race says the victim still has work).  It is the final recheck
// before parking: a randomized probe there could miss the one worker still
// holding tasks and put a core to sleep until the next completion event,
// while the sweep guarantees a worker only parks when every deque was seen
// empty after it announced idleness.
func (p *Pool) stealAny(thief *worker) *task {
	n := len(p.workers)
	for i := 1; i < n; i++ {
		v := p.workers[(thief.id+i)%n]
		for {
			thief.st.attempts.Add(1)
			t, contended := v.dq.steal()
			if t != nil {
				thief.st.steals.Add(1)
				return t
			}
			if !contended {
				break
			}
		}
	}
	return nil
}

// trySteal makes one bounded round of random probes.  Victims are sampled
// among the other n−1 workers so no probe is wasted on the thief itself (at
// p=2 self-sampling voided half the attempts).
func (p *Pool) trySteal(thief *worker) *task {
	n := len(p.workers)
	if n == 1 {
		return nil
	}
	for tries := 0; tries < n; tries++ {
		v := p.workers[(thief.id+1+thief.rng.Intn(n-1))%n]
		thief.st.attempts.Add(1)
		if t, _ := v.dq.steal(); t != nil {
			thief.st.steals.Add(1)
			return t
		}
	}
	return nil
}

// Scratch returns the executing worker's arena shard.  The shard is
// owner-only: it may be used only from the task body this Ctx was handed to
// (which runs entirely on the owning worker's goroutine, help-running
// included), never stashed and touched from elsewhere.  Slabs themselves may
// migrate — a task may release to its executing worker a slab another worker
// allocated — because a slab has exactly one owner at a time.
func (c *Ctx) Scratch() *arena.Shard { return c.w.scratch }

// Fork pushes fn as a stealable task and returns its join handle.
func (c *Ctx) Fork(fn func(*Ctx)) Handle {
	t := c.w.arena.alloc(fn)
	c.w.dq.push(t)
	c.w.pool.wake()
	return Handle{t: t}
}

// Join waits for a forked task, helping with other work meanwhile: first the
// worker's own deque (which most likely holds the forked task itself), then
// steals; with nothing runnable it parks until the fork completes.  Joining
// only your own forks keeps the discipline deadlock-free.
func (c *Ctx) Join(h Handle) {
	for !h.t.isDone() {
		t := c.w.next(h.t.isDone, false)
		if t == nil {
			return
		}
		c.w.run(t)
	}
}
