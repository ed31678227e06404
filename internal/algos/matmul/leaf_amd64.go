package matmul

import "unsafe"

// tileF64 and tileI64 report whether this CPU runs the float64 and the int64
// tile kernel, read once at package init.
var tileF64, tileI64 = tileFeatures()

// tileFeatures reads CPUID and XCR0.  The float64 kernel needs AVX2 with the
// SSE and YMM register state enabled by the OS; the int64 kernel needs
// AVX-512 F, DQ and VL (VPMULLQ on YMM registers) with the opmask and ZMM
// state enabled as well.
func tileFeatures() (f64, i64 bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false, false
	}
	const ymmState, zmmState = 0x6, 0xe6               // XCR0: SSE|AVX, and opmask|ZMM_Hi256|Hi16_ZMM
	const avx2, avx512 = 1 << 5, 1<<16 | 1<<17 | 1<<31 // leaf 7 EBX: AVX2; AVX512F|DQ|VL
	xcr0 := xgetbv()
	_, b, _, _ := cpuid(7, 0)
	f64 = xcr0&ymmState == ymmState && b&avx2 != 0
	i64 = f64 && xcr0&zmmState == zmmState && b&avx512 == avx512
	return f64, i64
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low half of XCR0; call it only when CPUID reports
// OSXSAVE.
func xgetbv() uint32

//go:noescape
func mulTileF64(a, b, o *float64, sa, sb, so, m int64, store bool)

//go:noescape
func mulTileI64(a, b, o *int64, sa, sb, so, m int64, store bool)

// hasTile reports whether a tile kernel multiplies T's elements on this CPU.
func hasTile[T Num]() bool {
	var zero T
	if _, ok := any(zero).(float64); ok {
		return tileF64
	}
	return tileI64
}

// mulTile runs the tile kernel for T on an m×m block, m a positive multiple
// of 8, after bounds-checking every row of the three blocks.  Call it only
// where hasTile[T] holds.
func mulTile[T Num](a, b, o []T, sa, sb, so, m int64, store bool) {
	rowsIn(a, sa, m)
	rowsIn(b, sb, m)
	rowsIn(o, so, m)
	pa, pb, po := unsafe.Pointer(&a[0]), unsafe.Pointer(&b[0]), unsafe.Pointer(&o[0])
	var zero T
	if _, ok := any(zero).(float64); ok {
		mulTileF64((*float64)(pa), (*float64)(pb), (*float64)(po), sa, sb, so, m, store)
		return
	}
	mulTileI64((*int64)(pa), (*int64)(pb), (*int64)(po), sa, sb, so, m, store)
}

// rowsIn slices every row of the m×m block of row stride st in s, as the Go
// kernel does, so that a block leaving s panics with the same index error.
// The tile kernel reads and writes through raw pointers: these slicings are
// its only bounds checks, and they run before it starts.
func rowsIn[T Num](s []T, st, m int64) {
	for r := int64(0); r < m; r++ {
		_ = s[r*st : r*st+m]
	}
}
