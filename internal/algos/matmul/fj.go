package matmul

// Unified fork-join source: the same cache-oblivious Depth-n-MM recursion as
// the simulated Table-1 kernel, written once against internal/fj and lowered
// to both backends.  The two k-halves run sequentially (no concurrent
// writers per output block), the four output quadrants of each half run as
// parallel tasks.  That keeps writers of one word apart in time, but it is
// not limited access: each product is added into its output word as it is
// made, so every output word is written n times (16 at n = 16 and 32 at
// n = 32 under the simulator; internal/trace's limited-access table).
//
// Cross-backend bit-identity: every product a[i,k]·b[k,j] is accumulated
// into out[i,j] individually, and the k-halves execute in ascending order at
// every recursion level, so for each output element the floating-point
// summation order is k = 0…n−1 regardless of the leaf cutoff — the sim and
// real lowerings (whose grains differ) produce byte-identical results.  The
// real leaf is MulLeaf (leaf.go): an amd64 vector tile kernel or the 2×2 Go
// kernel, each of which keeps every element's additions in that order (the
// argument is there).

import "repro/internal/fj"

// Grains are the per-backend leaf side lengths: the simulator keeps the
// recursion deep enough to observe, the real leaf is one call of MulLeaf.
// The real grain comes from a sweep of {32, 64} on the repository's
// benchmark (kernels_direct, side 256: p1/pn 5.4/2.8 ms at 32, 4.6/2.4 at
// 64, which still leaves 64 leaf products; the table is in CHANGES.md, PR
// 23).  That sweep ran on the scalar 2×2 leaf; it was not repeated for the
// vector tile kernel, which makes a leaf ~3–5× faster and so shifts the
// balance between leaf work and fork overhead.
const (
	GrainSim  = 4
	GrainReal = 64
)

// FJMul computes out += a·b for n×n row-major matrices held in fj views.
// n must be a power of two; out is typically zeroed by the caller.
func FJMul(c *fj.Ctx, a, b, out fj.F64, n int64) {
	if n&(n-1) != 0 {
		panic("matmul: FJMul requires a power-of-two side")
	}
	fjMul(c, a, b, out, 0, 0, 0, 0, 0, 0, n, n)
}

// fjMul multiplies the m×m blocks of a and b with top-left corners (ai,aj)
// and (bi,bj), accumulating into out's block at (oi,oj); all three matrices
// are row-major with row stride n.
func fjMul(c *fj.Ctx, a, b, out fj.F64, ai, aj, bi, bj, oi, oj, m, n int64) {
	if m <= c.Grain(GrainSim, GrainReal) {
		fjMulLeaf(c, a, b, out, ai, aj, bi, bj, oi, oj, m, n)
		return
	}
	h := m / 2
	// Sequential over the two k-halves, parallel over output quadrants.
	for kk := int64(0); kk < 2; kk++ {
		ak, bk := aj+kk*h, bi+kk*h
		c.Parallel(
			func(c *fj.Ctx) {
				c.Parallel(
					func(c *fj.Ctx) { fjMul(c, a, b, out, ai, ak, bk, bj, oi, oj, h, n) },
					func(c *fj.Ctx) { fjMul(c, a, b, out, ai, ak, bk, bj+h, oi, oj+h, h, n) },
				)
			},
			func(c *fj.Ctx) {
				c.Parallel(
					func(c *fj.Ctx) { fjMul(c, a, b, out, ai+h, ak, bk, bj, oi+h, oj, h, n) },
					func(c *fj.Ctx) { fjMul(c, a, b, out, ai+h, ak, bk, bj+h, oi+h, oj+h, h, n) },
				)
			},
		)
	}
}

// fjMulLeaf is the serial base case.  On the real backend it runs the
// register-blocked micro-kernel of leaf.go on the native slices; under the
// simulator it performs the identical accumulation through charged accesses.
// Both add products one at a time in (k-major per output element) ascending
// order.
func fjMulLeaf(c *fj.Ctx, a, b, out fj.F64, ai, aj, bi, bj, oi, oj, m, n int64) {
	if as := a.Raw(); as != nil {
		MulLeaf(as[ai*n+aj:], b.Raw()[bi*n+bj:], out.Raw()[oi*n+oj:], n, n, n, m, false)
		return
	}
	for i := int64(0); i < m; i++ {
		for k := int64(0); k < m; k++ {
			av := a.Get(c, (ai+i)*n+aj+k)
			for j := int64(0); j < m; j++ {
				o := (oi+i)*n + oj + j
				out.Set(c, o, out.Get(c, o)+av*b.Get(c, (bi+k)*n+bj+j))
				c.Op(1)
			}
		}
	}
}
