package registry

import (
	"fmt"
	"sort"

	"repro/internal/algos/fft"
	"repro/internal/algos/gather"
	"repro/internal/algos/listrank"
	"repro/internal/algos/mat"
	"repro/internal/algos/matmul"
	"repro/internal/algos/scan"
	"repro/internal/algos/sortx"
	"repro/internal/algos/spms"
	"repro/internal/algos/strassen"
	"repro/internal/fj"
)

// Invocation-by-name: the service-facing slice of the catalog.  The rest of
// the registry assumes in-process callers that build their own inputs with
// the seeded generators; an Invocable instead accepts a caller-supplied
// payload — a flat []int64 word vector, the same canonical encoding the
// cross-backend equality gate compares — validates its shape *before* any
// kernel code touches it, and writes the kernel's output into a separate
// word vector.  Malformed payloads come back as errors (the serving layer
// maps them to 400), never as panics.
//
// Every fj kernel in the catalog is invocable.  Each entry is derived by
// the codec layer (codec.go): an element codec keyed off the kernel's fj
// view type (I64, F64 as IEEE-754 bit words, C128 as interleaved re/im
// word pairs) plus a shape giving the payload geometry — so the catalog,
// not per-kernel glue, defines what is servable.  The Payload field states
// each encoding; in brief:
//
//	sort, sortx  n i64 keys; output is the keys sorted ascending
//	scan         n i64 values; output[i] = sum of values[0..i]
//	gather       2n i64 words: n indices then n values
//	listrank     n i64 successor indices encoding a single chain
//	strassen     2n² i64 words: row-major A then B, n a power of two
//	matmul       2n² f64-bit words: row-major A then B, n a power of two
//	transpose    n² f64-bit words: one row-major square matrix
//	fft          2n words: re/im interleaved f64 bits, n a power of two
//
// Invocables run on the real backend only (payloads are native Go memory,
// wrapped zero-copy via fj.WrapI64/WrapF64/WrapC128); the serving layer
// schedules Run inside a fork-join invocation on its shared rt.Pool.

// Invocable is a kernel callable by name with a caller-supplied payload.
type Invocable struct {
	Name string
	Desc string
	// Payload documents the wire encoding (surfaced on /kernels).
	Payload string
	// Codec is the element codec the payload decodes through (codec.go);
	// Codec.RoundTrip is the byte-identity contract FuzzInvokeCodec pins.
	Codec *Codec
	// Validate checks the payload's shape (length, encoded-dimension and
	// index-range constraints).  A nil error guarantees Run will not panic
	// on this input; n = 0 and n = 1 degenerates are valid for every kernel.
	Validate func(in []int64) error
	// OutLen gives the output word count for a valid payload.
	OutLen func(in []int64) int64
	// Run executes the kernel on c, reading in and writing all of out
	// (len(out) = OutLen(in)).  It must only be called after Validate
	// accepted in, with a real-backend Ctx.
	Run func(c *fj.Ctx, in, out []int64)
	// InWords gives the payload word count Gen would build for size n
	// (saturating instead of overflowing), so callers can enforce payload
	// caps before anything is allocated.
	InWords func(n int64) int64
	// Gen builds the seeded size-n payload the catalog's experiments use —
	// the serving layer's per-request-seeding path for clients that want a
	// workload without shipping one.
	Gen func(n int64, seed uint64) ([]int64, error)
	// Verify checks out against in from scratch (serially, independent of
	// the kernel) — the serving layer's output-verification hook.
	Verify func(in, out []int64) bool
}

// Invocables returns the service-callable catalog sorted by name.
func Invocables() []Invocable {
	out := append([]Invocable(nil), invocables...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FindInvocable returns the service-callable kernel with the given name.
func FindInvocable(name string) (Invocable, bool) {
	for _, k := range invocables {
		if k.Name == name {
			return k, true
		}
	}
	return Invocable{}, false
}

// genKeys seeds n keys in [0, mod) with the catalog's fill convention.
func genKeys(n int64, seed uint64, mod int64) ([]int64, error) {
	if n < 0 {
		return nil, fmt.Errorf("n = %d is negative", n)
	}
	out := make([]int64, n)
	fillI64(fj.WrapI64(out), seed, mod)
	return out, nil
}

// verifySorted checks that out is exactly the ascending sort of in.
func verifySorted(in, out []int64) bool {
	if len(in) != len(out) {
		return false
	}
	want := append([]int64(nil), in...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if out[i] != want[i] {
			return false
		}
	}
	return true
}

// sortRun copies the keys and sorts the copy in place with the given
// fork-join sort.
func sortRun(kernel func(*fj.Ctx, fj.I64)) func(c *fj.Ctx, in, out fj.I64) {
	return func(c *fj.Ctx, in, out fj.I64) {
		copy(out.Raw(), in.Raw())
		kernel(c, out)
	}
}

var invocables = []Invocable{
	i64Invocable("sort", "SPMS sort of an int64 key vector (the catalog's spms kernel)",
		"n i64 keys; output sorted ascending", flatShape,
		sortRun(spms.FJSort),
		func(n int64, seed uint64) ([]int64, error) { return genKeys(n, seed+12, 1<<30) },
		verifySorted,
	),
	i64Invocable("sortx", "merge-path merge sort of an int64 key vector",
		"n i64 keys; output sorted ascending", flatShape,
		sortRun(sortx.FJSort),
		func(n int64, seed uint64) ([]int64, error) { return genKeys(n, seed+5, 1<<30) },
		verifySorted,
	),
	i64Invocable("scan", "parallel prefix sums over an int64 vector",
		"n i64 values; output[i] = values[0]+…+values[i]", flatShape,
		func(c *fj.Ctx, in, out fj.I64) { scan.FJPrefix(c, in, out) },
		func(n int64, seed uint64) ([]int64, error) {
			if n < 0 {
				return nil, fmt.Errorf("n = %d is negative", n)
			}
			out := make([]int64, n)
			fillI64Signed(fj.WrapI64(out), seed+6)
			return out, nil
		},
		func(in, out []int64) bool {
			if len(in) != len(out) {
				return false
			}
			var s int64
			for i := range in {
				s += in[i]
				if out[i] != s {
					return false
				}
			}
			return true
		},
	),
	i64Invocable("gather", "out[i] = vals[idx[i]] with sentinel −1 for negative indices",
		"2n i64 words: n indices (< n; negative → sentinel) then n values", pairShape,
		func(c *fj.Ctx, in, out fj.I64) {
			n := in.Len() / 2
			gather.FJGather(c, in.Slice(0, n), in.Slice(n, 2*n), out, -1)
		},
		func(n int64, seed uint64) ([]int64, error) {
			if n < 0 {
				return nil, fmt.Errorf("n = %d is negative", n)
			}
			out := make([]int64, 2*n)
			fillPartialPerm(fj.WrapI64(out[:n]), n, seed+9)
			fillI64(fj.WrapI64(out[n:]), seed+10, 1<<30)
			return out, nil
		},
		func(in, out []int64) bool {
			n := len(in) / 2
			if len(in)%2 != 0 || len(out) != n {
				return false
			}
			idx, vals := in[:n], in[n:]
			for i := 0; i < n; i++ {
				want := int64(-1)
				if idx[i] >= 0 {
					want = vals[idx[i]]
				}
				if out[i] != want {
					return false
				}
			}
			return true
		},
	),
	i64Invocable("listrank", "list ranking by double-buffered pointer jumping",
		"n i64 successor indices: a single chain, −1 terminates the tail", listShape,
		func(c *fj.Ctx, in, out fj.I64) { listrank.FJRank(c, in, out) },
		func(n int64, seed uint64) ([]int64, error) {
			if n < 0 {
				return nil, fmt.Errorf("n = %d is negative", n)
			}
			succ := make([]int64, n)
			fillPermList(fj.WrapI64(succ), n, seed+11)
			return succ, nil
		},
		func(in, out []int64) bool {
			n := int64(len(in))
			if int64(len(out)) != n || validList(in) != nil {
				return false
			}
			// Walk the chain serially: ranks must descend from n−1 to 0.
			at, want := listHead(in), n-1
			for at >= 0 {
				if out[at] != want {
					return false
				}
				at = in[at]
				want--
			}
			return want == -1
		},
	),
	i64Invocable("strassen", "Strassen product of two n×n int64 matrices (n a power of two)",
		"2n² i64 words: row-major A then B; output is A·B", matPairShape,
		func(c *fj.Ctx, in, out fj.I64) {
			n, _ := matPairDim(in.Len())
			nn := n * n
			strassen.FJMul(c, in.Slice(0, nn), in.Slice(nn, 2*nn), out, n)
		},
		func(n int64, seed uint64) ([]int64, error) {
			if n < 0 || n&(n-1) != 0 {
				return nil, fmt.Errorf("matrix dimension %d is not a power of two", n)
			}
			out := make([]int64, 2*n*n)
			fillI64(fj.WrapI64(out[:n*n]), seed+3, 10)
			fillI64(fj.WrapI64(out[n*n:]), seed+4, 10)
			return out, nil
		},
		func(in, out []int64) bool {
			n, err := matPairDim(int64(len(in)))
			if err != nil || int64(len(out)) != n*n {
				return false
			}
			if n == 0 {
				return true
			}
			a, b := in[:n*n], in[n*n:]
			// Probe fjProbes entries exactly, the catalog's verifier budget.
			g := LCG(1)
			for t := 0; t < fjProbes; t++ {
				i, j := g.Next()%n, g.Next()%n
				var s int64
				for k := int64(0); k < n; k++ {
					s += a[i*n+k] * b[k*n+j]
				}
				if out[i*n+j] != s {
					return false
				}
			}
			return true
		},
	),
	f64Invocable("matmul", "cache-oblivious Depth-n-MM product of two n×n float64 matrices",
		"2n² f64-bit words: row-major A then B (n a power of two); output is A·B", matPairShape,
		func(c *fj.Ctx, in, out []float64) {
			n, _ := matPairDim(int64(len(in)))
			nn := n * n
			a := fj.WrapMatF64(in[:nn], n, n)
			b := fj.WrapMatF64(in[nn:], n, n)
			o := fj.WrapMatF64(out, n, n)
			clear(out) // FJMul accumulates (C += A·B) and out may be reused
			matmul.FJMul(c, a.F64, b.F64, o.F64, o.Rows)
		},
		func(n int64, seed uint64) ([]int64, error) {
			if n < 0 || n&(n-1) != 0 {
				return nil, fmt.Errorf("matrix dimension %d is not a power of two", n)
			}
			vals := make([]float64, 2*n*n)
			fillF64(fj.WrapF64(vals[:n*n]), seed+1)
			fillF64(fj.WrapF64(vals[n*n:]), seed+2)
			return f64ToWords(vals), nil
		},
		func(in, out []int64) bool {
			n, err := matPairDim(int64(len(in)))
			if err != nil || int64(len(out)) != n*n {
				return false
			}
			ab, o := f64FromWords(in), f64FromWords(out)
			return probeProductF(fj.WrapF64(ab[:n*n]), fj.WrapF64(ab[n*n:]), fj.WrapF64(o), n, 1)
		},
	),
	f64Invocable("transpose", "cache-oblivious transpose of an n×n float64 matrix",
		"n² f64-bit words: one row-major square matrix; output is its transpose", squareShape,
		func(c *fj.Ctx, in, out []float64) {
			n, _ := squareDim(int64(len(in)), false)
			src := fj.WrapMatF64(in, n, n)
			dst := fj.WrapMatF64(out, n, n)
			mat.FJTranspose(c, src.F64, dst.F64, src.Rows, src.Cols)
		},
		func(n int64, seed uint64) ([]int64, error) {
			if n < 0 {
				return nil, fmt.Errorf("n = %d is negative", n)
			}
			vals := make([]float64, n*n)
			fillF64(fj.WrapF64(vals), seed+8)
			return f64ToWords(vals), nil
		},
		func(in, out []int64) bool {
			n, err := squareDim(int64(len(in)), false)
			if err != nil || len(out) != len(in) {
				return false
			}
			// A transpose only moves bits, so verify at the word level —
			// exact for every payload, NaN bit patterns included.
			for i := int64(0); i < n; i++ {
				for j := int64(0); j < n; j++ {
					if out[j*n+i] != in[i*n+j] {
						return false
					}
				}
			}
			return true
		},
	),
	c128Invocable("fft", "parallel decimation-in-time FFT over complex128 samples",
		"2n f64-bit words: re/im interleaved (n a power of two); output is the forward DFT", fftShape,
		func(c *fj.Ctx, in, out []complex128) {
			copy(out, in) // FJForward transforms in place; keep in for Verify
			fft.FJForward(c, fj.WrapC128(out))
		},
		func(n int64, seed uint64) ([]int64, error) {
			if n < 0 || n&(n-1) != 0 {
				return nil, fmt.Errorf("transform length %d is not a power of two", n)
			}
			data := make([]complex128, n)
			g := LCG(seed + 7)
			for i := int64(0); i < n; i++ {
				re := float64(g.Next()%1000)/1000 - 0.5
				im := float64(g.Next()%1000)/1000 - 0.5
				data[i] = complex(re, im)
			}
			return c128ToWords(data), nil
		},
		func(in, out []int64) bool {
			if len(out) != len(in) || len(in)%2 != 0 {
				return false
			}
			return probeDFT(c128FromWords(in), fj.WrapC128(c128FromWords(out)), 1)
		},
	),
}
