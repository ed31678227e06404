package matmul

import (
	"math"
	"runtime"
	"strings"
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

// leafKernel is one kernel under test: MulLeaf itself, the 2×2 Go kernel, or
// the tile kernel, which takes only sides that are multiples of 8.
type leafKernel[T Num] struct {
	name string
	run  func(a, b, o []T, sa, sb, so, m int64, store bool)
	tile bool
}

// leafKernels lists the kernels to hold to the triple loop on this CPU; a
// tile kernel the CPU lacks is logged as skipped.
func leafKernels[T Num](tb testing.TB) []leafKernel[T] {
	ks := []leafKernel[T]{{"MulLeaf", MulLeaf[T], false}, {"Go 2×2", mulLeafGo[T], false}}
	if hasTile[T]() {
		return append(ks, leafKernel[T]{"tile", mulTile[T], true})
	}
	tb.Logf("%T: no tile kernel on this CPU, skipped", *new(T))
	return ks
}

func testMulLeaf[T Num](t *testing.T, name string, special []T) {
	for _, k := range leafKernels[T](t) {
		for fill, gen := range leafInputs(special) {
			for _, m := range []int64{1, 2, 4, 8, 16, 32, 64} {
				if k.tile && m%8 != 0 {
					continue
				}
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
					k.run(a[2:], b[1:], got[3:], sa, sb, so, m, store)
					refMul(a[2:], b[1:], want[3:], sa, sb, so, m, store)
					if !sameBits(got, want) {
						t.Errorf("%s %s %s m=%d store=%v: differs from the triple loop",
							name, k.name, fill, m, store)
					}
				}
			}
		}
	}
}

// TestMulLeafOrderInvariant holds MulLeaf, the 2×2 Go kernel and the tile
// kernel each to the plain triple loop bit for bit, on both element types,
// both modes, sides from the 1×1 matrix up, and including the elements of
// the surrounding matrices they must not touch.
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

// TestMulLeafShortBlock cuts one operand one element short of its block and
// expects an index error.  Where the tile kernel would run, the error must
// come before the kernel touches anything: o is left as it was.
func TestMulLeafShortBlock(t *testing.T) {
	testShortBlock[float64](t, "float64")
	testShortBlock[int64](t, "int64")
}

func testShortBlock[T Num](t *testing.T, name string) {
	untouched := hasTile[T]() && !raceEnabled
	for _, m := range []int64{8, 16} {
		for short := range 3 {
			s := m + 1 // the row stride of all three blocks
			ops := [3][]T{make([]T, s*m), make([]T, s*m), make([]T, s*m)}
			for i := range ops[2] {
				ops[2][i] = T(i)
			}
			// Rows are sliced, so the cut is to the capacity.
			cut := (m-1)*s + m - 1
			ops[short] = ops[short][:cut:cut]
			o := ops[2]
			before := append([]T(nil), o...)
			err := func() (err any) {
				defer func() { err = recover() }()
				MulLeaf(ops[0], ops[1], o, s, s, s, m, false)
				return nil
			}()
			if re, ok := err.(runtime.Error); !ok || !strings.Contains(re.Error(), "out of range") {
				t.Errorf("%s m=%d, operand %d short: got %v, want an index error", name, m, short, err)
			}
			if untouched && !sameBits(o, before) {
				t.Errorf("%s m=%d, operand %d short: o written before the index error", name, m, short)
			}
		}
	}
}

// BenchmarkMulLeaf times one 64×64 leaf of a side-256 product, as matmul's
// real leaf sees it, on each kernel this CPU has.
func BenchmarkMulLeaf(b *testing.B) {
	b.Run("float64", benchMulLeaf[float64])
	b.Run("int64", benchMulLeaf[int64])
}

func benchMulLeaf[T Num](b *testing.B) {
	const n, m = 256, 64
	x, y, o := make([]T, n*n), make([]T, n*n), make([]T, n*n)
	for i := range x {
		x[i], y[i] = T(i%7), T(i%5)
	}
	for _, k := range leafKernels[T](b) {
		if k.name == "MulLeaf" {
			continue
		}
		b.Run(k.name, func(b *testing.B) {
			for b.Loop() {
				k.run(x, y, o, n, n, n, m, false)
			}
		})
	}
}
