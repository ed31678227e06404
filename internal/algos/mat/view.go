// Package mat implements the matrix-layout HBP algorithms of Section 3.2:
// MT (matrix transposition in the bit-interleaved layout), the conversions
// between row-major (RM) and bit-interleaved (BI) layouts — including the
// gapping technique of "BI-RM (gap RM)" and the √-recursive "BI-RM for FFT"
// — and FJTranspose, the rectangular RM transpose of the fj transpose
// kernel.
//
// The BI (bit-interleaved) layout recursively places the top-left quadrant,
// then top-right, bottom-left and bottom-right.  Its virtue (Section 3.2) is
// that recursive quadrant tasks access contiguous memory: BP tasks are
// O(1)-cache-friendly and share O(1) blocks, which drives the good cache and
// block-miss bounds for MT and Strassen.
package mat

import (
	"fmt"

	"repro/internal/mem"
)

// Layout selects how a View maps (i,j) to an address.
type Layout uint8

const (
	// RM is row-major: (i,j) ↦ i·stride + j.
	RM Layout = iota
	// BI is bit-interleaved (Morton, quadrant order TL,TR,BL,BR).
	BI
)

// View is a rectangular matrix view over simulated memory.  Elem is the
// number of words per element (1 for int64 matrices, 2 for complex).
// BI views must be square with power-of-two side and are always contiguous:
// quadrant q occupies the q-th quarter of the underlying range.
type View struct {
	Base   mem.Addr
	Rows   int64
	Cols   int64
	Stride int64 // row stride in elements (RM only)
	Elem   int64
	Layout Layout
}

// NewRM returns an r×c row-major view at base with the given stride.
func NewRM(base mem.Addr, r, c, stride, elem int64) View {
	return View{Base: base, Rows: r, Cols: c, Stride: stride, Elem: elem, Layout: RM}
}

// NewBI returns an n×n bit-interleaved view at base.
func NewBI(base mem.Addr, n, elem int64) View {
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("mat: BI side must be a power of two, got %d", n))
	}
	return View{Base: base, Rows: n, Cols: n, Elem: elem, Layout: BI}
}

// AllocRM allocates a fresh r×c row-major matrix.
func AllocRM(sp *mem.Space, r, c, elem int64) View {
	return NewRM(sp.Alloc(r*c*elem), r, c, c, elem)
}

// AllocBI allocates a fresh n×n bit-interleaved matrix.
func AllocBI(sp *mem.Space, n, elem int64) View {
	return NewBI(sp.Alloc(n*n*elem), n, elem)
}

// Addr returns the address of the first word of element (i,j).
func (v View) Addr(i, j int64) mem.Addr {
	switch v.Layout {
	case BI:
		return v.Base + v.Elem*Morton(i, j)
	default:
		return v.Base + v.Elem*(i*v.Stride+j)
	}
}

// Words returns the number of words the view spans (BI/contiguous views).
func (v View) Words() int64 { return v.Rows * v.Cols * v.Elem }

// Quad returns quadrant q (0=TL, 1=TR, 2=BL, 3=BR) of a square view with
// even side.
func (v View) Quad(q int) View {
	h := v.Rows / 2
	switch v.Layout {
	case BI:
		sub := v
		sub.Base = v.Base + int64(q)*h*h*v.Elem
		sub.Rows, sub.Cols = h, h
		return sub
	default:
		sub := v
		sub.Rows, sub.Cols = h, h
		switch q {
		case 0:
		case 1:
			sub.Base += h * v.Elem
		case 2:
			sub.Base += h * v.Stride * v.Elem
		case 3:
			sub.Base += (h*v.Stride + h) * v.Elem
		}
		return sub
	}
}

// Get and Set access elements directly (no cache simulation), for test setup
// and verification.
func (v View) Get(sp *mem.Space, i, j int64) int64    { return sp.Load(v.Addr(i, j)) }
func (v View) Set(sp *mem.Space, i, j int64, x int64) { sp.Store(v.Addr(i, j), x) }

// Morton interleaves the bits of i (odd positions) and j (even positions),
// yielding the BI index with quadrant order TL, TR, BL, BR.
func Morton(i, j int64) int64 {
	return spread1(i)<<1 | spread1(j)
}

// MortonDecode inverts Morton.
func MortonDecode(z int64) (i, j int64) {
	return compact1(z >> 1), compact1(z)
}

// spread1 spaces the low 32 bits of x apart: bit k moves to bit 2k.
func spread1(x int64) int64 {
	v := uint64(x) & 0xFFFFFFFF
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return int64(v)
}

// compact1 inverts spread1, collecting even-position bits.
func compact1(z int64) int64 {
	v := uint64(z) & 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0F0F0F0F0F0F0F0F
	v = (v | v>>4) & 0x00FF00FF00FF00FF
	v = (v | v>>8) & 0x0000FFFF0000FFFF
	v = (v | v>>16) & 0x00000000FFFFFFFF
	return int64(v)
}
