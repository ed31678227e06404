package fj

// Bulk ops: leaf loops several kernels share, each written once with both
// lowerings — the native loop on hardware, and under the simulator exactly
// the Get/Set stream its doc states, so a kernel that calls one records
// the tape its own charged loop would.  Each panics on views of different
// lengths, on both backends.
//
// Why ops, rather than Get/Set loops on both backends: on a 2-vCPU x86-64
// host, running the kernels' charged loops on hardware in place of their
// native twins read kernels_direct p1_ms 2.9× slower for scan, 2.5× for
// gather, 1.5× for strassen and 1.35× for listrank (4 alternating pairs),
// and an op taking the element operation as a closure ran 1.9× slower than
// the native loop (2²¹ int64 adds).  So each op is one concrete loop.

// Copy copies src into dst, charging for i ascending a read of src[i] and
// then a write of dst[i].
func Copy[T Elem](c *Ctx, dst, src View[T]) {
	n := sameLen("Copy", dst.Len(), src.Len())
	if c.sim == nil {
		copy(dst.s, src.s)
		return
	}
	for i := range n {
		dst.simSet(c, i, src.simGet(c, i))
	}
}

// Sum returns v[0] + … + v[n−1], added left to right, charging a read of
// v[i] for i ascending.
func Sum(c *Ctx, v I64) (s int64) {
	if c.sim == nil {
		for _, x := range v.s {
			s += x
		}
		return s
	}
	for i := range v.Len() {
		s += v.simGet(c, i)
	}
	return s
}

// Prefix writes out[i] = offset + in[0] + … + in[i] (in and out may be one
// view), charging for i ascending a read of in[i] and then a write of
// out[i].
func Prefix(c *Ctx, in, out I64, offset int64) {
	n := sameLen("Prefix", in.Len(), out.Len())
	if c.sim == nil {
		os := out.s[:n]
		for i, x := range in.s {
			offset += x
			os[i] = offset
		}
		return
	}
	for i := range n {
		offset += in.simGet(c, i)
		out.simSet(c, i, offset)
	}
}

func sameLen(op string, n, m int64) int64 {
	if n != m {
		panic("fj: " + op + " of views of different lengths")
	}
	return n
}
