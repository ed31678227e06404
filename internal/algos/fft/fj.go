package fft

// Unified fork-join source: a recursive decimation-in-time FFT over
// complex128 written once against internal/fj.  The two half-size transforms
// recurse as parallel tasks into disjoint halves of the destination and the
// butterfly combine is a parallel loop.  Each slot is written once per level,
// log₂ n + 1 times in all (8 at n = 128 and 10 at n = 512 under the
// simulator), so the kernel is not limited access.  Both backends run one
// recursion (transform.rec) with one task tree; they differ only where
// hardware runs a different loop.  Under the simulator the recursion goes
// down to single elements and every butterfly computes its twiddle where it
// uses it; on real hardware the recursion stops at an iterative leaf and
// twiddles come from a table.
//
// Cross-backend bit-identity: the recursion tree and the butterfly formulas
// are identical at every node regardless of where parallelism stops — the
// leaf cutoff only decides whether the two halves run as parallel tasks or
// as serial calls — so the sim and real lowerings produce byte-identical
// spectra even though their grains differ.  The real lowering keeps that
// argument whole, in two steps.
//
// The table holds the formula's values.  A transform of size m multiplies
// butterfly k by complex(cos(a_m·k), sin(a_m·k)), a_m = −2π/m in float64.
// The root's table is tw[j] = complex(cos(a_n·j), sin(a_n·j)), and level m
// reads tw[k·n/m].  n/m is a power of two, so a_n = a_m·(m/n) exactly
// (dividing a float64 by a power of two only changes its exponent), and
// a_n·(k·n/m) is the float64 nearest the same real number a_m·k is nearest:
// the two angles are the same float64, and cos and sin of one argument give
// one result (k = 0 included: the angle is −0 and the twiddle 1−0i on both
// sides).
//
// The leaf performs the recursion's butterflies.  Unrolled to single
// elements, the recursion puts src[sOff + stride·rev(j)] (rev reversing the
// log₂ m bits of j) at dst[dOff+j] and then, for s = 2, 4, …, m, combines
// each aligned s-block of dst with the size-s butterflies.  The leaf does
// exactly that: the bit-reversed load, then one pass per s.  Every butterfly
// has the operands and the twiddle it has in the recursion and butterflies
// of one pass touch disjoint slots, so the spectra agree bit for bit at any
// leaf size.

import (
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/fj"
)

// Per-backend transform sizes at or below which recursion runs serially (on
// real hardware: as the iterative leaf), and the simulator's leaf lengths of
// the parallel copy and butterfly loops above them.
const (
	FJFFTGrainSim  = 8
	FJFFTGrainReal = 256

	copyGrainSim, butterflyGrainSim = 16, 16
)

// FJForward computes the in-place forward DFT of data.  data's length must
// be a power of two.
func FJForward(c *fj.Ctx, data fj.C128) {
	n := data.Len()
	if n&(n-1) != 0 {
		panic("fft: FJForward requires a power-of-two length")
	}
	if n <= 1 {
		return
	}
	src := c.ScratchC128(n) // the copy loop writes all n slots first
	c.ForRange(0, n, copyGrainSim, func(c *fj.Ctx, lo, hi int64) {
		fj.Copy(c, src.Slice(lo, hi), data.Slice(lo, hi))
	})
	forward(c, data, src, c.Grain(FJFFTGrainSim, FJFFTGrainReal))
	c.FreeC128(src)
}

// transform is one forward DFT: dst receives the DFT of src, and
// transforms of more than leaf elements run their halves as parallel tasks.
// On hardware d and s are the views' native slices and tw is the size-n
// root's twiddle table; all three are nil under the simulator.
type transform struct {
	dst, src fj.C128
	d, s, tw []complex128
	n, leaf  int64
}

// forward writes the DFT of src (n ≥ 2 elements) into dst.
func forward(c *fj.Ctx, dst, src fj.C128, leaf int64) {
	f := &transform{dst: dst, src: src, n: dst.Len(), leaf: leaf}
	var scratch fj.C128
	if d := dst.Raw(); d != nil {
		f.d, f.s = d, src.Raw()
		f.tw, scratch = twiddles(c, f.n)
	}
	f.rec(c, 0, 0, 1, f.n)
	c.FreeC128(scratch)
}

// rec writes into dst[dOff : dOff+m) the DFT of the m elements src[sOff],
// src[sOff+stride], src[sOff+2·stride], …: above the leaf the two halves
// as parallel tasks and then the butterflies as a parallel loop; at or
// below it serially, on hardware as the iterative leaf.
func (f *transform) rec(c *fj.Ctx, dOff, sOff, stride, m int64) {
	h := m / 2
	switch {
	case m > f.leaf:
		c.Parallel(
			func(c *fj.Ctx) { f.rec(c, dOff, sOff, 2*stride, h) },
			func(c *fj.Ctx) { f.rec(c, dOff+h, sOff+stride, 2*stride, h) },
		)
		c.ForRange(0, h, butterflyGrainSim, func(c *fj.Ctx, lo, hi int64) {
			f.butterflies(c, dOff, m, lo, hi)
		})
	case f.tw != nil:
		f.leafDFT(dOff, sOff, stride, m)
	case m == 1:
		f.dst.Set(c, dOff, f.src.Get(c, sOff))
	default:
		f.rec(c, dOff, sOff, 2*stride, h)
		f.rec(c, dOff+h, sOff+stride, 2*stride, h)
		f.butterflies(c, dOff, m, 0, h)
	}
}

// butterflies combines slots k and k+m/2, lo ≤ k < hi, of the size-m block
// at dst[off]: on hardware with the table's twiddles, under the simulator
// with each twiddle computed where it is used and one Op charged per
// butterfly.
func (f *transform) butterflies(c *fj.Ctx, off, m, lo, hi int64) {
	if f.tw != nil {
		f.tableButterflies(off, m, 1, lo, hi)
		return
	}
	h := m / 2
	ang := -2 * math.Pi / float64(m)
	for k := lo; k < hi; k++ {
		w := complex(math.Cos(ang*float64(k)), math.Sin(ang*float64(k)))
		t := w * f.dst.Get(c, off+h+k)
		e := f.dst.Get(c, off+k)
		f.dst.Set(c, off+k, e+t)
		f.dst.Set(c, off+h+k, e-t)
		c.Op(1)
	}
}

// leafDFT is the serial transform of m elements: the bit-reversed load, then
// one pass of butterflies per block size.
func (f *transform) leafDFT(dOff, sOff, stride, m int64) {
	d := f.d[dOff : dOff+m]
	shift := 64 - uint(bits.TrailingZeros64(uint64(m)))
	for j := range d {
		d[j] = f.s[sOff+stride*int64(bits.Reverse64(uint64(j))>>shift)]
	}
	for s := int64(2); s <= m; s *= 2 {
		f.tableButterflies(dOff, s, m/s, 0, s/2)
	}
}

// tableButterflies is the hardware's butterflies: it combines slots k and
// k+s/2, lo ≤ k < hi, in each of the count consecutive size-s blocks that
// start at dst[off], with the table's twiddles.
func (f *transform) tableButterflies(off, s, count, lo, hi int64) {
	h, step := s/2, f.n/s
	for ; count > 0; count, off = count-1, off+s {
		even, odd := f.d[off+lo:off+hi], f.d[off+h+lo:off+h+hi]
		odd = odd[:len(even)]
		for i := range even {
			t := f.tw[(lo+int64(i))*step] * odd[i]
			e := even[i]
			even[i] = e + t
			odd[i] = e - t
		}
	}
}

// --- the hardware's twiddle table -----------------------------------------

// twiddleCacheMaxLog bounds the memory the process retains for twiddle
// tables.  A table of a root size n ≤ 2^twiddleCacheMaxLog is built by the
// first transform of that size, published once and kept: n/2 complex128, so
// all twenty together hold 16·(2²⁰−1) bytes, under 16 MiB, however many
// transforms run.  A larger root — the service's default payload cap,
// serve.Config.MaxWords = 2²² words, admits n = 2²¹ — builds its table in
// arena scratch and frees it with the call.  Nothing is built until a
// transform asks.
const twiddleCacheMaxLog = 20

// twiddleCache[lg] is the published table of root size 2^lg, immutable once
// stored.  Racing first transforms each build the table and one store wins;
// the tables hold the same bits, so the losers just use their own.
var twiddleCache [twiddleCacheMaxLog + 1]atomic.Pointer[[]complex128]

// twiddles returns tw[j] = complex(cos(a·j), sin(a·j)), a = −2π/n, for
// j < n/2 — everything a size-n transform and its sub-transforms index —
// and, when the table is per-call scratch, the view to free after use (the
// zero view otherwise, which FreeC128 ignores).
func twiddles(c *fj.Ctx, n int64) ([]complex128, fj.C128) {
	lg := bits.TrailingZeros64(uint64(n))
	if lg > twiddleCacheMaxLog {
		v := c.ScratchC128(n / 2)
		tw := v.Raw()
		fillTwiddles(c, tw, n)
		return tw, v
	}
	if p := twiddleCache[lg].Load(); p != nil {
		return *p, fj.C128{}
	}
	tw := make([]complex128, n/2)
	fillTwiddles(c, tw, n)
	twiddleCache[lg].CompareAndSwap(nil, &tw)
	return tw, fj.C128{}
}

func fillTwiddles(c *fj.Ctx, tw []complex128, n int64) {
	ang := -2 * math.Pi / float64(n)
	c.ForRange(0, int64(len(tw)), copyGrainSim, func(_ *fj.Ctx, lo, hi int64) {
		for j := lo; j < hi; j++ {
			tw[j] = complex(math.Cos(ang*float64(j)), math.Sin(ang*float64(j)))
		}
	})
}
