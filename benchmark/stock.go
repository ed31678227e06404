package main

import (
	"math"
	"slices"
)

// Stock baselines: the same nine jobs as plain serial Go on native element
// types — what a caller would write without the runtime.  Each is prepared
// from the invocable's word payload outside the timing; run does the job
// into reused buffers; words re-encodes the result so the invocable's own
// verifier can check it.  algos.K.stock_ratio is stock time ÷ runtime time
// at p = P, so > 1 means the runtime beats plain Go.
type stockKernel struct {
	run   func()
	words func() []int64
}

func f64s(w []int64) []float64 {
	out := make([]float64, len(w))
	for i, x := range w {
		out[i] = math.Float64frombits(uint64(x))
	}
	return out
}

func f64Words(v []float64) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(math.Float64bits(x))
	}
	return out
}

// isqrt returns the integer square root of a perfect square.
func isqrt(n int) int { return int(math.Round(math.Sqrt(float64(n)))) }

// stockFor builds the baseline of the named invocable on payload in.
func stockFor(name string, in []int64) stockKernel {
	switch name {
	case "sort", "sortx":
		buf := make([]int64, len(in))
		return stockKernel{
			run:   func() { copy(buf, in); slices.Sort(buf) },
			words: func() []int64 { return buf },
		}
	case "scan":
		out := make([]int64, len(in))
		return stockKernel{
			run: func() {
				var s int64
				for i, x := range in {
					s += x
					out[i] = s
				}
			},
			words: func() []int64 { return out },
		}
	case "gather":
		n := len(in) / 2
		idx, vals, out := in[:n], in[n:], make([]int64, n)
		return stockKernel{
			run: func() {
				for i, j := range idx {
					if j < 0 {
						out[i] = -1
					} else {
						out[i] = vals[j]
					}
				}
			},
			words: func() []int64 { return out },
		}
	case "listrank":
		n := len(in)
		out, pred := make([]int64, n), make([]bool, n)
		return stockKernel{
			run: func() {
				clear(pred)
				for _, s := range in {
					if s >= 0 {
						pred[s] = true
					}
				}
				head := int64(slices.Index(pred, false))
				for at, rank := head, int64(n-1); at >= 0; at, rank = in[at], rank-1 {
					out[at] = rank
				}
			},
			words: func() []int64 { return out },
		}
	case "fft":
		n := len(in) / 2
		src, a := make([]complex128, n), make([]complex128, n)
		for i := range src {
			src[i] = complex(math.Float64frombits(uint64(in[2*i])), math.Float64frombits(uint64(in[2*i+1])))
		}
		return stockKernel{
			run: func() { copy(a, src); fftRadix2(a) },
			words: func() []int64 {
				out := make([]int64, 2*n)
				for i, z := range a {
					out[2*i] = int64(math.Float64bits(real(z)))
					out[2*i+1] = int64(math.Float64bits(imag(z)))
				}
				return out
			},
		}
	case "transpose":
		src := f64s(in)
		n := isqrt(len(src))
		dst := make([]float64, len(src))
		return stockKernel{
			run:   func() { transposeBlocked(dst, src, n) },
			words: func() []int64 { return f64Words(dst) },
		}
	case "matmul":
		ab := f64s(in)
		n := isqrt(len(ab) / 2)
		out := make([]float64, n*n)
		return stockKernel{
			run:   func() { clear(out); mulIKJ(out, ab[:n*n], ab[n*n:], n) },
			words: func() []int64 { return f64Words(out) },
		}
	case "strassen":
		n := isqrt(len(in) / 2)
		out := make([]int64, n*n)
		return stockKernel{
			run:   func() { clear(out); mulIKJ(out, in[:n*n], in[n*n:], n) },
			words: func() []int64 { return out },
		}
	}
	panic("benchmark: no stock baseline for " + name)
}

// mulIKJ accumulates the row-major n×n product a·b into out with the
// cache-friendly i-k-j loop order.
func mulIKJ[T int64 | float64](out, a, b []T, n int) {
	for i := 0; i < n; i++ {
		row := out[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j, bkj := range b[k*n : (k+1)*n] {
				row[j] += aik * bkj
			}
		}
	}
}

// transposeBlocked writes the transpose of the row-major n×n src into dst
// in 32×32 tiles.
func transposeBlocked(dst, src []float64, n int) {
	const tile = 32
	for i0 := 0; i0 < n; i0 += tile {
		for j0 := 0; j0 < n; j0 += tile {
			for i := i0; i < min(i0+tile, n); i++ {
				for j := j0; j < min(j0+tile, n); j++ {
					dst[j*n+i] = src[i*n+j]
				}
			}
		}
	}
}

// fftRadix2 is the textbook iterative forward FFT (bit-reversal, then
// log n butterfly passes) on a power-of-two length.
func fftRadix2(a []complex128) {
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		sin, cos := math.Sincos(-2 * math.Pi / float64(size))
		step := complex(cos, sin)
		for lo := 0; lo < n; lo += size {
			w := complex(1, 0)
			for k := lo; k < lo+half; k++ {
				u, v := a[k], a[k+half]*w
				a[k], a[k+half] = u+v, u-v
				w *= step
			}
		}
	}
}
