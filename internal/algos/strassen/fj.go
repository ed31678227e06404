package strassen

// Unified fork-join source: Strassen's recursion written once against
// internal/fj.  As in the simulated Table-1 kernel, the seven recursive
// products land in fresh subarrays (limited access) and run as parallel
// tasks; quadrant extraction, the T/U operand sums and the final combine are
// serial O(n²) passes dominated by the O(n^2.81) recursive work.  On real
// hardware each of those passes is a loop (or row copies) over the native
// slices and the base case is matmul.MulLeaf; under the simulator the
// same reads and writes go through charged accesses.
//
// Elements are int64: Strassen's bracketing differs with the leaf cutoff,
// and the sim and real grains differ, so exact integer arithmetic is what
// makes the two lowerings byte-identical (the float kernel of this family is
// matmul's Depth-n-MM, whose summation order is cutoff-invariant).

import (
	"repro/internal/algos/matmul"
	"repro/internal/fj"
)

// Per-backend leaf side lengths: below them the product is the classical
// triple loop.  The real grain comes from a sweep of {32, 64} on the
// repository's benchmark (kernels_direct, side 256: p1/pn 7.2/4.4 ms at 32,
// 6.4/3.8 at 64, 49 leaf products; CHANGES.md, PR 23), run on the scalar
// 2×2 leaf and not repeated for the vector tile kernel.  The cross-backend
// equality gate simulates a side of twice the grain, 128, in about half a
// second.
const (
	FJGrainSim  = 4
	FJGrainReal = 64
)

// FJMul computes out = a·b for n×n row-major int64 matrices (n a power of
// two) held in fj views.
func FJMul(c *fj.Ctx, a, b, out fj.I64, n int64) {
	if n&(n-1) != 0 {
		panic("strassen: FJMul requires a power-of-two side")
	}
	if out.Raw() != nil {
		fjMulRec(c, a, b, n, out) // the top level writes its quadrants into out
		return
	}
	p := fjMulRec(c, a, b, n, fj.I64{}) // the simulated top level copies its product out
	fj.Copy(c, out, p)
	c.FreeI64(p)
}

// fjMulRec returns a·b: in dst when that is a native view (the real top
// level), in fresh scratch when it is the zero view.
func fjMulRec(c *fj.Ctx, a, b fj.I64, n int64, dst fj.I64) fj.I64 {
	if n <= c.Grain(FJGrainSim, FJGrainReal) {
		return fjMulClassical(c, a, b, n, dst)
	}
	h := n / 2
	a11, a12, a21, a22 := fjQuadrants(c, a, n)
	b11, b12, b21, b22 := fjQuadrants(c, b, n)

	// The seven Strassen operand pairs; the T/U sum temporaries are named so
	// every quadrant and temporary can be released once the products join.
	t0a, t0b := fjAdd(c, a11, a22), fjAdd(c, b11, b22)
	t1a := fjAdd(c, a21, a22)
	t2b := fjSub(c, b12, b22)
	t3b := fjSub(c, b21, b11)
	t4a := fjAdd(c, a11, a12)
	t5a, t5b := fjSub(c, a21, a11), fjAdd(c, b11, b12)
	t6a, t6b := fjSub(c, a12, a22), fjAdd(c, b21, b22)
	ops := [7][2]fj.I64{
		{t0a, t0b}, // p0 = (a11+a22)(b11+b22)
		{t1a, b11}, // p1 = (a21+a22)·b11
		{a11, t2b}, // p2 = a11·(b12−b22)
		{a22, t3b}, // p3 = a22·(b21−b11)
		{t4a, b22}, // p4 = (a11+a12)·b22
		{t5a, t5b}, // p5 = (a21−a11)(b11+b12)
		{t6a, t6b}, // p6 = (a12−a22)(b21+b22)
	}
	var p [7]fj.I64
	fjProducts(c, &ops, &p, h, 1)
	for _, v := range [...]fj.I64{a11, a12, a21, a22, b11, b12, b21, b22,
		t0a, t0b, t1a, t2b, t3b, t4a, t5a, t5b, t6a, t6b} {
		c.FreeI64(v)
	}

	out := dst
	if out.Raw() == nil {
		out = c.ScratchI64(n * n) // the four writeQuads cover every element
	}
	q := fjCombine4(c, p[0], p[3], p[4], p[6])
	writeQuad(c, out, n, 0, 0, q) // c11 = p0+p3−p4+p6
	c.FreeI64(q)
	q = fjAdd(c, p[2], p[4])
	writeQuad(c, out, n, 0, h, q) // c12 = p2+p4
	c.FreeI64(q)
	q = fjAdd(c, p[1], p[3])
	writeQuad(c, out, n, h, 0, q) // c21 = p1+p3
	c.FreeI64(q)
	q = fjCombine4(c, p[0], p[2], p[1], p[5])
	writeQuad(c, out, n, h, h, q) // c22 = p0+p2−p1+p5
	c.FreeI64(q)
	for _, v := range p {
		c.FreeI64(v)
	}
	return out
}

// fjProducts forks the h×h product p[i] and computes the rest inline —
// p[i+1…6], then p0 — so p1…p6 are forked in order, p0 runs on the caller
// and the joins go p6…p1.
func fjProducts(c *fj.Ctx, ops *[7][2]fj.I64, p *[7]fj.I64, h int64, i int) {
	if i == len(p) {
		p[0] = fjMulRec(c, ops[0][0], ops[0][1], h, fj.I64{})
		return
	}
	c.Parallel(
		func(c *fj.Ctx) { fjProducts(c, ops, p, h, i+1) },
		func(c *fj.Ctx) { p[i] = fjMulRec(c, ops[i][0], ops[i][1], h, fj.I64{}) },
	)
}

// fjQuadrants copies the four h×h quadrants of an n×n row-major matrix into
// fresh contiguous matrices.
func fjQuadrants(c *fj.Ctx, m fj.I64, n int64) (q11, q12, q21, q22 fj.I64) {
	h := n / 2
	q11, q12 = c.ScratchI64(h*h), c.ScratchI64(h*h) // fully written below
	q21, q22 = c.ScratchI64(h*h), c.ScratchI64(h*h)
	if ms := m.Raw(); ms != nil {
		r11, r12, r21, r22 := q11.Raw(), q12.Raw(), q21.Raw(), q22.Raw()
		for i := int64(0); i < h; i++ {
			top, bot := ms[i*n:(i+1)*n], ms[(i+h)*n:(i+h+1)*n]
			copy(r11[i*h:(i+1)*h], top[:h])
			copy(r12[i*h:(i+1)*h], top[h:])
			copy(r21[i*h:(i+1)*h], bot[:h])
			copy(r22[i*h:(i+1)*h], bot[h:])
		}
		return
	}
	for i := int64(0); i < h; i++ {
		for j := int64(0); j < h; j++ {
			q11.Set(c, i*h+j, m.Get(c, i*n+j))
			q12.Set(c, i*h+j, m.Get(c, i*n+h+j))
			q21.Set(c, i*h+j, m.Get(c, (i+h)*n+j))
			q22.Set(c, i*h+j, m.Get(c, (i+h)*n+h+j))
		}
	}
	return
}

// writeQuad copies the h×h matrix q into the quadrant of the n×n out whose
// top-left element is (ri, ci), one row at a time.
func writeQuad(c *fj.Ctx, out fj.I64, n, ri, ci int64, q fj.I64) {
	h := n / 2
	for i := int64(0); i < h; i++ {
		fj.Copy(c, out.Slice((ri+i)*n+ci, (ri+i)*n+ci+h), q.Slice(i*h, (i+1)*h))
	}
}

func fjAdd(c *fj.Ctx, a, b fj.I64) fj.I64 {
	out := c.ScratchI64(a.Len())
	if as := a.Raw(); as != nil {
		bs, os := b.Raw()[:len(as)], out.Raw()[:len(as)]
		for i, x := range as {
			os[i] = x + bs[i]
		}
		return out
	}
	for i := int64(0); i < a.Len(); i++ {
		out.Set(c, i, a.Get(c, i)+b.Get(c, i))
	}
	return out
}

func fjSub(c *fj.Ctx, a, b fj.I64) fj.I64 {
	out := c.ScratchI64(a.Len())
	if as := a.Raw(); as != nil {
		bs, os := b.Raw()[:len(as)], out.Raw()[:len(as)]
		for i, x := range as {
			os[i] = x - bs[i]
		}
		return out
	}
	for i := int64(0); i < a.Len(); i++ {
		out.Set(c, i, a.Get(c, i)-b.Get(c, i))
	}
	return out
}

// fjCombine4 returns w+x−y+z elementwise.
func fjCombine4(c *fj.Ctx, w, x, y, z fj.I64) fj.I64 {
	out := c.ScratchI64(w.Len())
	if ws := w.Raw(); ws != nil {
		xs, ys, zs, os := x.Raw()[:len(ws)], y.Raw()[:len(ws)], z.Raw()[:len(ws)], out.Raw()[:len(ws)]
		for i, v := range ws {
			os[i] = v + xs[i] - ys[i] + zs[i]
		}
		return out
	}
	for i := int64(0); i < w.Len(); i++ {
		out.Set(c, i, w.Get(c, i)+x.Get(c, i)-y.Get(c, i)+z.Get(c, i))
	}
	return out
}

// fjMulClassical is the serial base case: matmul.MulLeaf on native
// slices on the real backend — storing, not adding, each element's first
// product, so the result needs no zeroing pass — and the plain triple loop
// through charged accesses under the simulator.
func fjMulClassical(c *fj.Ctx, a, b fj.I64, n int64, dst fj.I64) fj.I64 {
	if as := a.Raw(); as != nil {
		out := dst
		if out.Raw() == nil {
			out = c.ScratchI64(n * n)
		}
		matmul.MulLeaf(as, b.Raw(), out.Raw(), n, n, n, n, true)
		return out
	}
	out := c.AllocI64(n * n) // Alloc, not Scratch: the triple loop += into it
	for i := int64(0); i < n; i++ {
		for k := int64(0); k < n; k++ {
			av := a.Get(c, i*n+k)
			for j := int64(0); j < n; j++ {
				out.Set(c, i*n+j, out.Get(c, i*n+j)+av*b.Get(c, k*n+j))
				c.Op(1)
			}
		}
	}
	return out
}
