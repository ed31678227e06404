package matmul

import (
	"math"
	"testing"
	"unsafe"
)

// refMul is the plain i-k-j triple loop, one product added at a time — what
// both real leaves were before the micro-kernel, kept as its definition.
// With store, the k = 0 product is stored instead of added.
func refMul[T Num](a, b, o []T, sa, sb, so, m int64, store bool) {
	for i := int64(0); i < m; i++ {
		for k := int64(0); k < m; k++ {
			for j := int64(0); j < m; j++ {
				if store && k == 0 {
					o[i*so+j] = a[i*sa+k] * b[k*sb+j]
				} else {
					o[i*so+j] += a[i*sa+k] * b[k*sb+j]
				}
			}
		}
	}
}

// sameBits compares two slices of 8-byte numbers as bit patterns, so that
// NaNs compare equal to themselves and −0 differs from +0.
func sameBits[T Num](x, y []T) bool {
	for i := range x {
		if *(*uint64)(unsafe.Pointer(&x[i])) != *(*uint64)(unsafe.Pointer(&y[i])) {
			return false
		}
	}
	return len(x) == len(y)
}

// leafInputs are the operand fills the order argument has to survive:
// uniform random values; values of wildly different magnitude and sign, so
// every sum cancels and any reassociation shows; and, for float64, operands
// seeded with NaN, ±Inf and −0.
func leafInputs[T Num](special []T) map[string]func(i uint64) T {
	lcg := func(i uint64) uint64 { return (i+1)*6364136223846793005 + 1442695040888963407 }
	fills := map[string]func(i uint64) T{
		"random": func(i uint64) T { return T(lcg(i)>>40) / 1024 },
		"cancelling": func(i uint64) T {
			v := T(lcg(i)>>44) * T(int64(1)<<(lcg(i)>>8%40))
			if lcg(i)>>7&1 == 1 {
				return -v
			}
			return v
		},
	}
	if len(special) > 0 {
		fills["special"] = func(i uint64) T {
			if r := lcg(i) >> 20 % 16; int(r) < len(special) {
				return special[r]
			}
			return T(lcg(i)>>50) - 4096
		}
	}
	return fills
}

func testMulLeaf[T Num](t *testing.T, name string, special []T) {
	for fill, gen := range leafInputs(special) {
		for _, m := range []int64{1, 2, 4, 32, 64} {
			for _, store := range []bool{false, true} {
				// The blocks sit inside wider matrices at distinct offsets, as
				// matmul's leaf sees them.
				sa, sb, so := m+3, m+1, m+2
				a, b := make([]T, sa*m+5), make([]T, sb*m+5)
				for i := range a {
					a[i] = gen(uint64(i))
				}
				for i := range b {
					b[i] = gen(uint64(i) + 1<<20)
				}
				got, want := make([]T, so*m+5), make([]T, so*m+5)
				for i := range got {
					got[i] = gen(uint64(i) + 2<<20)
					want[i] = got[i]
				}
				MulLeaf(a[2:], b[1:], got[3:], sa, sb, so, m, store)
				refMul(a[2:], b[1:], want[3:], sa, sb, so, m, store)
				if !sameBits(got, want) {
					t.Errorf("%s %s m=%d store=%v: micro-kernel differs from the triple loop",
						name, fill, m, store)
				}
			}
		}
	}
}

// TestMulLeafOrderInvariant holds the 2×2 micro-kernel to the plain triple
// loop bit for bit, on both element types, both modes, sides from the 1×1
// matrix up, and including the elements of the surrounding matrices it must
// not touch.
func TestMulLeafOrderInvariant(t *testing.T) {
	testMulLeaf[int64](t, "int64", nil)
	// The NaN fed in is the one this machine's arithmetic produces, so every
	// NaN in the computation has the same bits.  With a second payload in
	// play, which of two NaN operands an add returns is the instruction's
	// choice of operand order — the compiler's, not the summation's — and
	// the comparison would test that instead.
	inf := math.Inf(1)
	testMulLeaf(t, "float64", []float64{
		inf - inf, inf, -inf, math.Copysign(0, -1), 0, math.MaxFloat64, math.SmallestNonzeroFloat64,
	})
}
