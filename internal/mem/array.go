package mem

import "fmt"

// Array is a typed view of a contiguous run of words holding int64 values.
// It carries no cache semantics; accesses that should be simulated go
// through machine.Proc / core.Ctx using the Addr method.
type Array struct {
	Space *Space
	Base  Addr
	N     int64
}

// NewArray allocates an n-word array at a block boundary.
func NewArray(sp *Space, n int64) Array {
	return Array{Space: sp, Base: sp.Alloc(n), N: n}
}

// Addr returns the address of element i.
func (a Array) Addr(i int64) Addr {
	if i < 0 || i >= a.N {
		panic(fmt.Sprintf("mem: array index %d out of range [0,%d)", i, a.N))
	}
	return a.Base + i
}

// Len returns the number of elements.
func (a Array) Len() int64 { return a.N }

// Slice returns the sub-array [lo, hi).
func (a Array) Slice(lo, hi int64) Array {
	if lo < 0 || hi < lo || hi > a.N {
		panic(fmt.Sprintf("mem: slice [%d,%d) out of range [0,%d)", lo, hi, a.N))
	}
	return Array{Space: a.Space, Base: a.Base + lo, N: hi - lo}
}

// Get and Set access elements directly (no cache simulation); for test setup
// and result extraction only.
func (a Array) Get(i int64) int64    { return a.Space.Load(a.Addr(i)) }
func (a Array) Set(i int64, v int64) { a.Space.Store(a.Addr(i), v) }

// Fill sets every element to v (directly, no cache simulation).
func (a Array) Fill(v int64) {
	for i := int64(0); i < a.N; i++ {
		a.Set(i, v)
	}
}

// CopyOut extracts the array contents into a Go slice.
func (a Array) CopyOut() []int64 {
	out := make([]int64, a.N)
	for i := range out {
		out[i] = a.Get(int64(i))
	}
	return out
}

// CopyIn loads the slice into the array (directly, no cache simulation).
func (a Array) CopyIn(src []int64) {
	if int64(len(src)) != a.N {
		panic(fmt.Sprintf("mem: CopyIn length %d != array length %d", len(src), a.N))
	}
	for i, v := range src {
		a.Set(int64(i), v)
	}
}

// CArray is a typed view of a contiguous run of word pairs holding complex
// values: element i occupies words 2i (real) and 2i+1 (imaginary).
type CArray struct {
	Space *Space
	Base  Addr
	N     int64 // number of complex elements
}

// NewCArray allocates an n-element complex array.
func NewCArray(sp *Space, n int64) CArray {
	return CArray{Space: sp, Base: sp.Alloc(2 * n), N: n}
}

// ReAddr and ImAddr return the addresses of the real/imaginary words of
// element i.
func (a CArray) ReAddr(i int64) Addr { return a.Base + 2*i }
func (a CArray) ImAddr(i int64) Addr { return a.Base + 2*i + 1 }

// Len returns the number of complex elements.
func (a CArray) Len() int64 { return a.N }

// Get and Set access elements directly (no cache simulation).
func (a CArray) Get(i int64) complex128 {
	return complex(a.Space.LoadF(a.ReAddr(i)), a.Space.LoadF(a.ImAddr(i)))
}

func (a CArray) Set(i int64, v complex128) {
	a.Space.StoreF(a.ReAddr(i), real(v))
	a.Space.StoreF(a.ImAddr(i), imag(v))
}

// CopyOut extracts the contents into a Go slice.
func (a CArray) CopyOut() []complex128 {
	out := make([]complex128, a.N)
	for i := range out {
		out[i] = a.Get(int64(i))
	}
	return out
}

// CopyIn loads the slice into the array.
func (a CArray) CopyIn(src []complex128) {
	if int64(len(src)) != a.N {
		panic(fmt.Sprintf("mem: CopyIn length %d != array length %d", len(src), a.N))
	}
	for i, v := range src {
		a.Set(int64(i), v)
	}
}
