package matmul

// The native base case shared by matmul's Depth-n-MM leaf and Strassen's
// classical product.  Two kernels serve it: an amd64 tile kernel on vector
// registers (leaf_amd64.s), taken when the side is a multiple of 8 and the
// CPU has the instructions, and a 2-row × 2-k register-blocked Go kernel,
// the portable path.
//
// Bit-identity with the plain i-k-j triple loop.  For every output element
// the triple loop adds the products a[i,k]·b[k,j] one at a time in ascending
// k.  The Go kernel takes two k at a step and computes
//
//	o[j] = (o[j] + a[i,k]·b[k,j]) + a[i,k+1]·b[k+1,j]
//
// which is the same two additions in the same order with the same operands —
// only the store and reload of o[j] between them is gone — so the result is
// the same bits for float64 (NaN, ±Inf, −0 and cancellation included) as for
// int64.  Handling two rows at a step changes nothing per element: rows are
// independent, they merely share the loads of b.
//
// The tile kernel keeps a 4-row × 8-column tile of o in eight vector
// accumulators for the whole k loop and, for each k, adds a[i,k]·b[k,j] to
// each element's accumulator, k ascending: the same sequence again, now
// without any store between the additions.  Each product is a multiply and
// then a separate add (VMULPD, VADDPD), never a fused multiply-add, which
// would round once where the triple loop rounds twice; the int64 kernel's
// VPMULLQ keeps the low 64 bits of the product, as Go's wrapping multiply
// does.  Lanes are elements, so no lane sums into another.  One NaN choice
// is the instruction's: with NaNs of two payloads as operands, VADDPD
// returns its first source's, which is the accumulator, while the Go
// kernel's is whichever operand the compiler puts first.  Computations whose
// NaNs all come from this machine's arithmetic carry one payload, and there
// the kernels agree.
//
// Speed.  The Go kernel does four multiply-adds per two loads of b and two
// load/store pairs of o — half the memory traffic per product of the
// one-product loop — and its inner loop is long enough that where the linker
// places it relative to a 64-byte line no longer decides its speed (the
// 41-byte loop it replaces ran at half speed across a line boundary).  It is
// at the scalar limit: 2×4 and 4×2 blockings measured no faster.  The tile
// kernel does 32 multiply-adds per k from two loads of b and four broadcasts
// of a, and touches o only at the tile's ends.  One 64×64 leaf of a side-256
// product takes, as the median of six BenchmarkMulLeaf runs on a shared
// 2-vCPU Xeon with AVX-512:
//
//	        Go 2×2    tile
//	float64 140 µs    27 µs
//	int64   220 µs    67 µs
//
// The int64 tile gains less: VPMULLQ is several micro-ops.

// Num is the element types the leaf multiplies.
type Num interface {
	int64 | float64
}

// MulLeaf multiplies the m×m row-major blocks starting at a[0] and b[0] (row
// strides sa and sb) into the block starting at o[0] (row stride so).  With
// store false it accumulates, o += a·b; with store true the first product of
// every element is stored rather than added, o = a·b, so o may hold anything
// on entry.
//
// Under the race detector it runs the Go kernel: the detector does not see
// the accesses assembly makes.
func MulLeaf[T Num](a, b, o []T, sa, sb, so, m int64, store bool) {
	if !raceEnabled && m > 0 && m%8 == 0 && hasTile[T]() {
		mulTile(a, b, o, sa, sb, so, m, store)
		return
	}
	mulLeafGo(a, b, o, sa, sb, so, m, store)
}

// mulLeafGo is the 2×2 Go kernel.
func mulLeafGo[T Num](a, b, o []T, sa, sb, so, m int64, store bool) {
	if m%2 != 0 {
		mulLeafPlain(a, b, o, sa, sb, so, m, store)
		return
	}
	for i := int64(0); i < m; i += 2 {
		a0, a1 := a[i*sa:i*sa+m], a[(i+1)*sa:(i+1)*sa+m]
		o0, o1 := o[i*so:i*so+m], o[(i+1)*so:(i+1)*so+m]
		o1 = o1[:len(o0)]
		k := int64(0)
		if store {
			b0, b1 := b[:len(o0)], b[sb:][:len(o0)]
			a00, a01, a10, a11 := a0[0], a0[1], a1[0], a1[1]
			for j := range o0 {
				x0, x1 := b0[j], b1[j]
				o0[j] = a00*x0 + a01*x1
				o1[j] = a10*x0 + a11*x1
			}
			k = 2
		}
		for ; k < m; k += 2 {
			b0, b1 := b[k*sb:][:len(o0)], b[(k+1)*sb:][:len(o0)]
			a00, a01, a10, a11 := a0[k], a0[k+1], a1[k], a1[k+1]
			for j := range o0 {
				x0, x1 := b0[j], b1[j]
				o0[j] = (o0[j] + a00*x0) + a01*x1
				o1[j] = (o1[j] + a10*x0) + a11*x1
			}
		}
	}
}

// mulLeafPlain is the one-product-at-a-time triple loop: the definition the
// kernels are held to, and the path of an odd side (the 1×1 matrix).
func mulLeafPlain[T Num](a, b, o []T, sa, sb, so, m int64, store bool) {
	for i := int64(0); i < m; i++ {
		orow := o[i*so : i*so+m]
		for k := int64(0); k < m; k++ {
			av := a[i*sa+k]
			brow := b[k*sb : k*sb+m]
			if store && k == 0 {
				for j, bv := range brow {
					orow[j] = av * bv
				}
				continue
			}
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}
