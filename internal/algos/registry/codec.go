package registry

// The codec layer behind the invocable catalog.  Every invocable speaks one
// wire encoding — a flat []int64 word vector, the same canonical form the
// cross-backend equality gate compares — but kernels compute on the typed
// views of internal/fj (I64, F64, C128).  A Codec is the bridge for one
// element type: an exact bit cast between wire words and native memory
// (Float64bits round-trips every payload, NaNs included), so decode→encode
// is byte-identity, which FuzzInvokeCodec pins for every kernel.  A shape
// adds the kernel's geometry on top: word count, structural constraints,
// and the input→output size map.  A new kernel therefore picks a codec,
// picks (or writes) a shape, and supplies a run adapter — it never grows
// another hand-written payload path.

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/fj"
)

// Codec converts between the wire word encoding and one fj element type.
// There are exactly three, keyed off the view types of internal/fj; each
// Invocable carries the one its payload decodes through.
type Codec struct {
	// Kind names the fj view type the codec decodes into: "i64", "f64"
	// (IEEE-754 bit words), or "c128" (interleaved re/im bit-word pairs).
	Kind string
	// WordsPerElem is the wire width of one element.
	WordsPerElem int64
	// RoundTrip decodes words into the native element type and re-encodes
	// them into a fresh vector.  All three codecs are exact bit casts, so
	// the result is byte-identical to w; len(w) must be a multiple of
	// WordsPerElem.
	RoundTrip func(w []int64) []int64
}

// viewWords reinterprets wire words in place as the elements they bit-encode
// (T is float64, one word each, or complex128, re then im: Go lays a
// complex128 out as exactly that pair).  Because the codecs are bit casts the
// view IS the decoded payload, so the float kernels run on the request's own
// words and write their output words directly; the copying functions below
// stay as the reference RoundTrip compares against.  len(w) must be a
// multiple of the element's word count.
func viewWords[T float64 | complex128](w []int64) []T {
	if len(w) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*T)(unsafe.Pointer(&w[0])), len(w)/int(unsafe.Sizeof(zero)/8))
}

var (
	codecI64 = &Codec{Kind: "i64", WordsPerElem: 1,
		RoundTrip: func(w []int64) []int64 { return append([]int64(nil), w...) }}
	codecF64 = &Codec{Kind: "f64", WordsPerElem: 1,
		RoundTrip: func(w []int64) []int64 { return f64ToWords(f64FromWords(w)) }}
	codecC128 = &Codec{Kind: "c128", WordsPerElem: 2,
		RoundTrip: func(w []int64) []int64 { return c128ToWords(c128FromWords(w)) }}
)

// f64FromWords decodes IEEE-754 bit words into a fresh native slice.
func f64FromWords(w []int64) []float64 {
	out := make([]float64, len(w))
	for i, x := range w {
		out[i] = math.Float64frombits(uint64(x))
	}
	return out
}

func f64ToWords(v []float64) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(math.Float64bits(x))
	}
	return out
}

// c128FromWords decodes interleaved (re bits, im bits) word pairs; len(w)
// must be even.
func c128FromWords(w []int64) []complex128 {
	out := make([]complex128, len(w)/2)
	for i := range out {
		out[i] = complex(
			math.Float64frombits(uint64(w[2*i])),
			math.Float64frombits(uint64(w[2*i+1])))
	}
	return out
}

func c128ToWords(v []complex128) []int64 {
	out := make([]int64, 2*len(v))
	for i, x := range v {
		out[2*i] = int64(math.Float64bits(real(x)))
		out[2*i+1] = int64(math.Float64bits(imag(x)))
	}
	return out
}

// shape describes one kernel's wire geometry.  The three fields become the
// Invocable's Validate, OutLen and InWords verbatim: check accepts a
// payload only if Run is panic-free on it, outWords derives the output
// word count of an accepted payload, and inWords maps request size n to
// payload words (saturating, so callers can cap before allocating).
type shape struct {
	check    func(w []int64) error
	outWords func(w []int64) int64
	inWords  func(n int64) int64
}

// flatShape accepts any word count; output is input-sized.  The geometry
// of the flat-vector kernels (sort, sortx, scan).
var flatShape = shape{
	check:    func([]int64) error { return nil },
	outWords: func(w []int64) int64 { return int64(len(w)) },
	inWords:  func(n int64) int64 { return n },
}

// pairShape is gather's 2n geometry: n indices then n values, every index
// below n (negative indices select the sentinel).
var pairShape = shape{
	check: func(w []int64) error {
		if len(w)%2 != 0 {
			return fmt.Errorf("payload has %d words, want 2·n (indices then values)", len(w))
		}
		n := int64(len(w) / 2)
		for i := int64(0); i < n; i++ {
			if w[i] >= n {
				return fmt.Errorf("index %d at position %d out of range [0,%d)", w[i], i, n)
			}
		}
		return nil
	},
	outWords: func(w []int64) int64 { return int64(len(w) / 2) },
	inWords:  func(n int64) int64 { return satMul(2, n) },
}

// matPairShape is the 2n² geometry of the matrix products (strassen,
// matmul): row-major A then B, n a power of two (both recursions halve).
var matPairShape = shape{
	check: func(w []int64) error {
		_, err := matPairDim(int64(len(w)))
		return err
	},
	outWords: func(w []int64) int64 { return int64(len(w) / 2) },
	inWords:  func(n int64) int64 { return satMul(2, satMul(n, n)) },
}

// squareShape is transpose's n² geometry: one row-major square matrix of
// any side.
var squareShape = shape{
	check: func(w []int64) error {
		_, err := squareDim(int64(len(w)), false)
		return err
	},
	outWords: func(w []int64) int64 { return int64(len(w)) },
	inWords:  func(n int64) int64 { return satMul(n, n) },
}

// fftShape is 2n words of interleaved complex samples, n zero or a power
// of two (the decimation recursion halves).
var fftShape = shape{
	check: func(w []int64) error {
		if len(w)%2 != 0 {
			return fmt.Errorf("payload has %d words, want 2·n (re/im interleaved)", len(w))
		}
		n := int64(len(w) / 2)
		if n&(n-1) != 0 {
			return fmt.Errorf("transform length %d is not a power of two", n)
		}
		return nil
	},
	outWords: func(w []int64) int64 { return int64(len(w)) },
	inWords:  func(n int64) int64 { return satMul(2, n) },
}

// listShape is listrank's geometry: n successor indices that must encode a
// single chain — every value in [−1, n), exactly one −1 tail, no node with
// two predecessors, every node reachable from the unique head.  In-range
// cycles would not crash FJRank (pointer jumping runs a fixed ⌈log₂ n⌉
// rounds regardless) but leave the ranks meaningless, so they are a shape
// error, not a kernel bug.
var listShape = shape{
	check:    validList,
	outWords: func(w []int64) int64 { return int64(len(w)) },
	inWords:  func(n int64) int64 { return n },
}

func validList(w []int64) error {
	n := int64(len(w))
	if n == 0 {
		return nil
	}
	pred := make([]bool, n)
	tails := int64(0)
	for i, s := range w {
		if s < -1 || s >= n {
			return fmt.Errorf("successor %d at node %d out of range [-1,%d)", s, i, n)
		}
		if s == -1 {
			tails++
			continue
		}
		if pred[s] {
			return fmt.Errorf("node %d has two predecessors", s)
		}
		pred[s] = true
	}
	if tails != 1 {
		return fmt.Errorf("want exactly one tail (successor -1), have %d", tails)
	}
	// One tail and all-distinct successors leave exactly one head (n nodes,
	// n−1 in-edges).  A cycle node always has its in-edge from within the
	// cycle, so the head walk can never enter one: if it covers fewer than
	// n nodes, the rest sit on cycles.
	count := int64(0)
	for at := listHead(w); at != -1; at = w[at] {
		count++
	}
	if count != n {
		return fmt.Errorf("successors do not form a single list: %d of %d nodes reachable from the head", count, n)
	}
	return nil
}

// listHead returns the no-predecessor node of a validList-accepted payload
// (−1 when empty).
func listHead(w []int64) int64 {
	pred := make([]bool, len(w))
	for _, s := range w {
		if s >= 0 {
			pred[s] = true
		}
	}
	for i, p := range pred {
		if !p {
			return int64(i)
		}
	}
	return -1
}

// squareDim decodes the side of an n²-word square payload; pow2 demands a
// power-of-two side on top.
func squareDim(words int64, pow2 bool) (int64, error) {
	n := int64(0)
	for n*n < words {
		n++
	}
	if n*n != words {
		return 0, fmt.Errorf("payload of %d words is not a square matrix", words)
	}
	if pow2 && n&(n-1) != 0 {
		return 0, fmt.Errorf("matrix dimension %d is not a power of two", n)
	}
	return n, nil
}

// matPairDim decodes the matrix dimension of a 2n²-word A-then-B payload.
func matPairDim(words int64) (int64, error) {
	if words%2 != 0 {
		return 0, fmt.Errorf("payload has %d words, want 2·n² (A then B)", words)
	}
	return squareDim(words/2, true)
}

// satMul multiplies saturating at MaxInt64, for InWords overflow safety.
func satMul(a, b int64) int64 {
	if a <= 0 || b <= 0 {
		return a * b
	}
	if a > (1<<63-1)/b {
		return 1<<63 - 1
	}
	return a * b
}

// i64Invocable derives an Invocable through the I64 codec: the wire words
// ARE the elements, so input and output wrap zero-copy via fj.WrapI64.
func i64Invocable(name, desc, payload string, sh shape,
	run func(c *fj.Ctx, in, out fj.I64),
	gen func(n int64, seed uint64) ([]int64, error),
	verify func(in, out []int64) bool) Invocable {
	return Invocable{
		Name: name, Desc: desc, Payload: payload, Codec: codecI64,
		Validate: sh.check, OutLen: sh.outWords, InWords: sh.inWords,
		Run: func(c *fj.Ctx, in, out []int64) {
			run(c, fj.WrapI64(in), fj.WrapI64(out))
		},
		Gen: gen, Verify: verify,
	}
}

// f64Invocable derives an Invocable through the F64 codec: wire words are
// IEEE-754 bit patterns, which the kernel reads and writes in place through
// viewWords.  run must not write in and must define every element of out
// (out arrives with whatever its last use left in it).
func f64Invocable(name, desc, payload string, sh shape,
	run func(c *fj.Ctx, in, out []float64),
	gen func(n int64, seed uint64) ([]int64, error),
	verify func(in, out []int64) bool) Invocable {
	return Invocable{
		Name: name, Desc: desc, Payload: payload, Codec: codecF64,
		Validate: sh.check, OutLen: sh.outWords, InWords: sh.inWords,
		Run: func(c *fj.Ctx, in, out []int64) {
			run(c, viewWords[float64](in), viewWords[float64](out))
		},
		Gen: gen, Verify: verify,
	}
}

// c128Invocable derives an Invocable through the C128 codec: two wire
// words per element (re bits, then im bits), viewed in place like F64.
func c128Invocable(name, desc, payload string, sh shape,
	run func(c *fj.Ctx, in, out []complex128),
	gen func(n int64, seed uint64) ([]int64, error),
	verify func(in, out []int64) bool) Invocable {
	return Invocable{
		Name: name, Desc: desc, Payload: payload, Codec: codecC128,
		Validate: sh.check, OutLen: sh.outWords, InWords: sh.inWords,
		Run: func(c *fj.Ctx, in, out []int64) {
			run(c, viewWords[complex128](in), viewWords[complex128](out))
		},
		Gen: gen, Verify: verify,
	}
}
