package registry

// The payload geometry behind the invocable catalog.  Every invocable speaks
// one wire encoding — a flat []int64 word vector, the same canonical form the
// cross-backend equality gate compares — and kernels compute on the typed
// views of internal/fj (I64, F64, C128) wrapped over those words in place
// (fj.WrapWords: an exact bit cast, so NaN payloads survive).  A shape adds
// the kernel's geometry: word count, structural constraints, and the
// input→output size map.  A new kernel therefore picks (or writes) a shape
// and supplies a run adapter, whose element type picks the view — it never
// grows another hand-written payload path.

import (
	"fmt"

	"repro/internal/fj"
)

// wordsPer is the wire width of one element of type T: one word, or two
// for a complex128's (re, im) bit words.
func wordsPer[T fj.Elem]() int64 {
	if _, ok := any(*new(T)).(complex128); ok {
		return 2
	}
	return 1
}

// shape describes one kernel's wire geometry.  segs is how many equal
// input segments the payload splits into — the operands of a binary kernel,
// which each get their own view — and size accepts the request sizes n the
// kernel's generator can build.  The other three fields become the
// Invocable's Validate, OutLen and InWords verbatim: check accepts a
// payload only if Run is panic-free on it, outWords derives the output
// word count of an accepted payload, and inWords maps request size n to
// payload words (saturating, so callers can cap before allocating).
type shape struct {
	segs     int
	size     func(n int64) error
	check    func(w []int64) error
	outWords func(w []int64) int64
	inWords  func(n int64) int64
}

// anySize accepts every nonnegative request size; pow2 is the check for
// kernels whose recursion halves the named dimension.
func anySize(n int64) error {
	if n < 0 {
		return fmt.Errorf("n = %d is negative", n)
	}
	return nil
}

func pow2(what string, n int64) error {
	if n < 0 || n&(n-1) != 0 {
		return fmt.Errorf("%s %d is not a power of two", what, n)
	}
	return nil
}

// flatShape accepts any word count; output is input-sized.  The geometry
// of the flat-vector kernels (sort, sortx, scan).
var flatShape = shape{
	segs: 1, size: anySize,
	check:    func([]int64) error { return nil },
	outWords: func(w []int64) int64 { return int64(len(w)) },
	inWords:  func(n int64) int64 { return n },
}

// pairShape is gather's 2n geometry: n indices then n values, every index
// below n (negative indices select the sentinel).
var pairShape = shape{
	segs: 2, size: anySize,
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
	segs: 2, size: func(n int64) error { return pow2("matrix dimension", n) },
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
	segs: 1, size: anySize,
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
	segs: 1, size: func(n int64) error { return pow2("transform length", n) },
	check: func(w []int64) error {
		if len(w)%2 != 0 {
			return fmt.Errorf("payload has %d words, want 2·n (re/im interleaved)", len(w))
		}
		return pow2("transform length", int64(len(w)/2))
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
	segs: 1, size: anySize,
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

// squareDim decodes the side of an n²-word square payload; wantPow2 demands
// a power-of-two side on top.
func squareDim(words int64, wantPow2 bool) (int64, error) {
	n := int64(0)
	for n*n < words {
		n++
	}
	if n*n != words {
		return 0, fmt.Errorf("payload of %d words is not a square matrix", words)
	}
	if wantPow2 {
		return n, pow2("matrix dimension", n)
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
