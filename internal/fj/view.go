package fj

import (
	"unsafe"

	"repro/internal/arena"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Elem is the set of element types a view can hold.  Each is a whole number
// of 8-byte memory words — one for int64 and float64 (stored as its IEEE-754
// bits), two for complex128 (real part, then imaginary) — and that word
// image is the only thing the two backends share: simulated memory holds
// words, native memory holds the elements, and every conversion between
// them is a bit cast.
type Elem interface {
	int64 | float64 | complex128
}

// View is a backend-neutral view of n elements of type T.  Get and Set go
// through a Ctx and are charged on the simulator, one word access per word
// of the element in ascending address order (so a complex128 Get charges
// two reads — exactly the footprint the Table-1 FFT analysis assumes);
// Load, Store, Words and CopyFrom bypass the charge model for setup,
// verification and result extraction.
type View[T Elem] struct {
	s  []T       // real backing (nil under the simulator)
	a  mem.Array // sim backing: the elements' words, element i first at word i·words[T]
	ar bool      // s is an original arena allocation, returnable via free
}

// I64, F64 and C128 name the three instantiations kernel sources are
// written against.
type (
	I64  = View[int64]
	F64  = View[float64]
	C128 = View[complex128]
)

// words is the number of memory words one T occupies.
func words[T Elem]() int64 {
	var x T
	return int64(unsafe.Sizeof(x) / 8)
}

// wordsOf reinterprets the memory of s as the words it consists of (and
// elemsOf the reverse): Go lays a float64 out as its IEEE-754 bits and a
// complex128 as the pair (real, imag), which is the word image Elem
// describes, so neither direction copies or converts anything.
func wordsOf[T Elem](s []T) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(s))), int64(len(s))*words[T]())
}

func elemsOf[T Elem](w []int64) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(w))), int64(len(w))/words[T]())
}

// Env allocates the typed views a kernel's inputs and outputs live in.  A
// sim Env draws block-aligned arrays from the simulated machine's address
// space (so accesses through a Ctx drive the cache model); a real Env backs
// views with native Go slices.
type Env struct {
	m *machine.Machine // nil on the real backend
}

// NewSimEnv returns an Env allocating in m's simulated address space.
func NewSimEnv(m *machine.Machine) *Env { return &Env{m: m} }

// NewRealEnv returns an Env allocating native slices.
func NewRealEnv() *Env { return &Env{} }

// NewView allocates a zeroed n-element view in e.
func NewView[T Elem](e *Env, n int64) View[T] {
	if e.m != nil {
		return View[T]{a: mem.NewArray(e.m.Space, n*words[T]())}
	}
	return View[T]{s: make([]T, n)}
}

// I64 allocates an n-element int64 view.
func (e *Env) I64(n int64) I64 { return NewView[int64](e, n) }

// F64 allocates an n-element float64 view.
func (e *Env) F64(n int64) F64 { return NewView[float64](e, n) }

// C128 allocates an n-element complex128 view.
func (e *Env) C128(n int64) C128 { return NewView[complex128](e, n) }

// ViewOf returns a view in e holding the elements whose word image is w
// (len(w) a multiple of the element's word count).  A real Env wraps w
// itself, like WrapWords; a sim Env stores the words, uncharged, into a
// fresh block-aligned array.
func ViewOf[T Elem](e *Env, w []int64) View[T] {
	if e.m == nil {
		return WrapWords[T](w)
	}
	a := mem.NewArray(e.m.Space, int64(len(w)))
	a.CopyIn(w)
	return View[T]{a: a}
}

// wrap wraps an existing native slice as a real-backend view without
// copying — the entry point for callers whose data already lives in Go
// memory.  The view shares s, so the caller sees every write the kernel
// makes.  Wrapped views are real-backend only: they charge nothing and
// cannot be used under the simulator.
func wrap[T Elem](s []T) View[T] {
	if s == nil {
		s = []T{} // a nil backing would read as a sim view
	}
	return View[T]{s: s}
}

// WrapWords wraps the elements whose word image is w, in place: the serving
// layer's zero-copy path.  A request's payload arrives as wire words, which
// are that image, so the kernel runs on the request's own memory and writes
// its output words directly.  len(w) must be a multiple of the element's
// word count.
func WrapWords[T Elem](w []int64) View[T] { return wrap(elemsOf[T](w)) }

// WrapI64 and WrapC128 are wrap at int64 and complex128.
func WrapI64(s []int64) I64        { return wrap(s) }
func WrapC128(s []complex128) C128 { return wrap(s) }

// pool picks the shard's slab pool for T.
func pool[T Elem](sh *arena.Shard) *arena.Pool[T] {
	if p, ok := any(&sh.I64).(*arena.Pool[T]); ok {
		return p
	}
	if p, ok := any(&sh.F64).(*arena.Pool[T]); ok {
		return p
	}
	return any(&sh.C128).(*arena.Pool[T])
}

// scratch allocates an n-element view mid-computation whose contents are
// unspecified — for scratch the caller fully writes before reading: a
// charged, block-aligned allocation from the executing core's arena on the
// simulator (the paper's allocation property: per-core allocations never
// share a block), a recycled cache-line-aligned slab from the executing
// worker's arena shard on real hardware.  Pair real allocations with free
// when the view is dead so the kernel's whole recursion reuses one
// footprint; an unfreed view is merely garbage-collected like any slice.
func scratch[T Elem](c *Ctx, n int64) View[T] {
	if c.sim != nil {
		return View[T]{a: c.sim.w.AllocArray(n * words[T]())}
	}
	return View[T]{s: pool[T](c.rc.Scratch()).Get(n), ar: true}
}

// free releases a view obtained from scratch or AllocI64 back to the
// executing worker's arena; the caller must not touch the view (or any
// sub-view of it) afterwards, and must not free a view twice.  Views that did not come
// from an arena allocation — Env allocations, Wrap* wrappings, sub-views
// made by Slice — are silently left alone, so a free can never recycle
// memory the arena does not own.  No-op under the simulator.
func free[T Elem](c *Ctx, v View[T]) {
	if !v.ar {
		return
	}
	pool[T](c.rc.Scratch()).Put(v.s)
}

// AllocI64 allocates like ScratchI64 and zeroes the view (the simulator's
// memory is born zeroed, so the two have the same charge profile there).
func (c *Ctx) AllocI64(n int64) I64 {
	v := scratch[int64](c, n)
	clear(v.s)
	return v
}

// The other methods kernel sources call: scratch (unspecified contents)
// and free at int64 and complex128.
func (c *Ctx) ScratchI64(n int64) I64   { return scratch[int64](c, n) }
func (c *Ctx) FreeI64(v I64)            { free(c, v) }
func (c *Ctx) ScratchC128(n int64) C128 { return scratch[complex128](c, n) }
func (c *Ctx) FreeC128(v C128)          { free(c, v) }

// Len returns the number of elements.
func (v View[T]) Len() int64 {
	if v.s != nil {
		return int64(len(v.s))
	}
	return v.a.N / words[T]()
}

// Slice returns the sub-view [lo, hi).  An out-of-range slice panics on
// both backends alike: a sim slice never silently aliases the adjacent
// simulated allocation, and a real one never reaches into the spare
// capacity of an arena slab (hence the capped slice expression).
func (v View[T]) Slice(lo, hi int64) View[T] {
	if v.s != nil {
		return View[T]{s: v.s[lo:hi:len(v.s)]}
	}
	w := words[T]()
	return View[T]{a: v.a.Slice(lo*w, hi*w)}
}

// Get reads element i (charged on the simulator).  Get and Set keep the
// simulator's side in a function of its own so that the native side is small
// enough to inline into a kernel's loop.
func (v View[T]) Get(c *Ctx, i int64) T {
	if v.s != nil {
		return v.s[i]
	}
	return v.simGet(c, i)
}

func (v View[T]) simGet(c *Ctx, i int64) T {
	var x T
	xw := wordsOf(unsafe.Slice(&x, 1))
	for k := range xw {
		xw[k] = c.sim.w.R(v.a.Addr(i*words[T]() + int64(k)))
	}
	return x
}

// Set writes element i (charged on the simulator).
func (v View[T]) Set(c *Ctx, i int64, x T) {
	if v.s != nil {
		v.s[i] = x
		return
	}
	v.simSet(c, i, x)
}

func (v View[T]) simSet(c *Ctx, i int64, x T) {
	for k, w := range wordsOf(unsafe.Slice(&x, 1)) {
		c.sim.w.W(v.a.Addr(i*words[T]()+int64(k)), w)
	}
}

// Raw returns the native backing slice on the real backend and nil under the
// simulator.  It is only for a hardware leaf that is a different algorithm
// or loop order than its charged twin, pinned by a bit-identity or order
// test; a leaf that copies or sums calls Copy, Sum or Prefix, and any
// other leaf loops through Get and Set (see the package doc).
func (v View[T]) Raw() []T { return v.s }

// Load reads element i without charging the simulation.
func (v View[T]) Load(i int64) T {
	if v.s != nil {
		return v.s[i]
	}
	var x T
	xw := wordsOf(unsafe.Slice(&x, 1))
	for k := range xw {
		xw[k] = v.a.Get(i*words[T]() + int64(k))
	}
	return x
}

// Store writes element i without charging the simulation.
func (v View[T]) Store(i int64, x T) {
	if v.s != nil {
		v.s[i] = x
		return
	}
	for k, w := range wordsOf(unsafe.Slice(&x, 1)) {
		v.a.Set(i*words[T]()+int64(k), w)
	}
}

// Words dumps the view's word image, the canonical form the cross-backend
// equality gate compares byte for byte — bit patterns, so equality of
// floating-point outputs is exact, not an epsilon test.
func (v View[T]) Words() []int64 {
	if v.s != nil {
		return append([]int64(nil), wordsOf(v.s)...)
	}
	return v.a.CopyOut()
}

// CopyFrom copies src's elements into v (of the same length) without
// charging the simulation: setup, like Store, for kernels that transform
// in place and are handed a separate input.
func (v View[T]) CopyFrom(src View[T]) {
	if v.s != nil {
		copy(v.s, src.s)
		return
	}
	v.a.CopyIn(src.a.CopyOut())
}
