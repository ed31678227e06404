package repro

// Overhead guard for the fj refactor: the hand-written rt kernels that
// internal/algos/{matmul,sortx}/real.go used to hold were deleted when the
// unified fork-join sources replaced them, but their exact code lives on
// here as benchmark baselines.  BenchmarkRealMatmul* and BenchmarkRealSort*
// compare the fj real lowering against those baselines at one size each;
// EXPERIMENTS.md records the measured overhead (target ≤15%).

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/algos/matmul"
	"repro/internal/algos/sortx"
	"repro/internal/algos/spms"
	"repro/internal/fj"
	"repro/internal/rt"
)

// --- hand-written baselines (the pre-fj kernels, verbatim) -----------------

const handMulCutoff = 32

func handMulRM(c *rt.Ctx, a, b, out []float64, ai, aj, bi, bj, oi, oj, m, n int) {
	if m <= handMulCutoff {
		for i := 0; i < m; i++ {
			orow := out[(oi+i)*n+oj : (oi+i)*n+oj+m]
			for k := 0; k < m; k++ {
				av := a[(ai+i)*n+aj+k]
				brow := b[(bi+k)*n+bj : (bi+k)*n+bj+m]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
		return
	}
	h := m / 2
	for kk := 0; kk < 2; kk++ {
		ak, bk := aj+kk*h, bi+kk*h
		c.Parallel(
			func(c *rt.Ctx) {
				c.Parallel(
					func(c *rt.Ctx) { handMulRM(c, a, b, out, ai, ak, bk, bj, oi, oj, h, n) },
					func(c *rt.Ctx) { handMulRM(c, a, b, out, ai, ak, bk, bj+h, oi, oj+h, h, n) },
				)
			},
			func(c *rt.Ctx) {
				c.Parallel(
					func(c *rt.Ctx) { handMulRM(c, a, b, out, ai+h, ak, bk, bj, oi+h, oj, h, n) },
					func(c *rt.Ctx) { handMulRM(c, a, b, out, ai+h, ak, bk, bj+h, oi+h, oj+h, h, n) },
				)
			},
		)
	}
}

const (
	handSortCutoff  = 2048
	handMergeCutoff = 4096
)

func handSort(c *rt.Ctx, data []int64) {
	if len(data) <= handSortCutoff {
		slices.Sort(data)
		return
	}
	buf := make([]int64, len(data))
	handSortRec(c, data, buf, false)
}

func handSortRec(c *rt.Ctx, src, buf []int64, toBuf bool) {
	n := len(src)
	if n <= handSortCutoff {
		slices.Sort(src)
		if toBuf {
			copy(buf, src)
		}
		return
	}
	mid := n / 2
	c.Parallel(
		func(c *rt.Ctx) { handSortRec(c, src[:mid], buf[:mid], !toBuf) },
		func(c *rt.Ctx) { handSortRec(c, src[mid:], buf[mid:], !toBuf) },
	)
	if toBuf {
		handMerge(c, src[:mid], src[mid:], buf)
	} else {
		handMerge(c, buf[:mid], buf[mid:], src)
	}
}

func handMerge(c *rt.Ctx, a, b, out []int64) {
	if len(a)+len(b) <= handMergeCutoff {
		handMergeSerial(a, b, out)
		return
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	i := len(a) / 2
	j := sort.Search(len(b), func(k int) bool { return b[k] >= a[i] })
	c.Parallel(
		func(c *rt.Ctx) { handMerge(c, a[:i], b[:j], out[:i+j]) },
		func(c *rt.Ctx) { handMerge(c, a[i:], b[j:], out[i+j:]) },
	)
}

func handMergeSerial(a, b, out []int64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// --- benchmark inputs ------------------------------------------------------

const (
	benchMatN  = 128
	benchSortN = 1 << 17
)

func benchMatrix(n int, seed uint64) []float64 {
	m := make([]float64, n*n)
	s := seed*2654435761 + 1
	for i := range m {
		s = s*6364136223846793005 + 1442695040888963407
		m[i] = float64(s>>40)/float64(1<<24) - 0.5
	}
	return m
}

func benchKeys(n int, seed uint64) []int64 {
	d := make([]int64, n)
	s := seed*2654435761 + 1
	for i := range d {
		s = s*6364136223846793005 + 1442695040888963407
		d[i] = int64(s >> 33)
	}
	return d
}

// --- the guard pairs -------------------------------------------------------

// All four Real* benchmarks reuse one pool across iterations — the steady
// state the kernel service runs in, and the regime where the fj arena
// discipline (recycled slabs, pooled fork frames) shows up in allocs/op.
func BenchmarkRealMatmulHand(b *testing.B) {
	a, bb := benchMatrix(benchMatN, 1), benchMatrix(benchMatN, 2)
	out := make([]float64, benchMatN*benchMatN)
	pool := rt.NewPool(0, rt.Random)
	b.Cleanup(pool.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out)
		pool.Run(func(c *rt.Ctx) { handMulRM(c, a, bb, out, 0, 0, 0, 0, 0, 0, benchMatN, benchMatN) })
	}
}

func BenchmarkRealMatmulFJ(b *testing.B) {
	env := fj.NewRealEnv()
	a, bb, out := env.F64(benchMatN*benchMatN), env.F64(benchMatN*benchMatN), env.F64(benchMatN*benchMatN)
	copy(a.Raw(), benchMatrix(benchMatN, 1))
	copy(bb.Raw(), benchMatrix(benchMatN, 2))
	pool := rt.NewPool(0, rt.Random)
	b.Cleanup(pool.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out.Raw())
		fj.RunReal(pool, func(c *fj.Ctx) { matmul.FJMul(c, a, bb, out, benchMatN) })
	}
}

func BenchmarkRealSortHand(b *testing.B) {
	src := benchKeys(benchSortN, 3)
	data := make([]int64, benchSortN)
	pool := rt.NewPool(0, rt.Random)
	b.Cleanup(pool.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(data, src)
		pool.Run(func(c *rt.Ctx) { handSort(c, data) })
	}
}

func BenchmarkRealSortFJ(b *testing.B) {
	src := benchKeys(benchSortN, 3)
	env := fj.NewRealEnv()
	data := env.I64(benchSortN)
	pool := rt.NewPool(0, rt.Random)
	b.Cleanup(pool.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(data.Raw(), src)
		fj.RunReal(pool, func(c *fj.Ctx) { sortx.FJSort(c, data) })
	}
}

// BenchmarkRealSortSPMSFJ times the SPMS kernel's real lowering on the same
// keys as the sortx pair above — the third leg of the sort trajectory that
// scripts/bench_snapshot.sh records into BENCH_sort.json each PR.
func BenchmarkRealSortSPMSFJ(b *testing.B) {
	src := benchKeys(benchSortN, 3)
	env := fj.NewRealEnv()
	data := env.I64(benchSortN)
	pool := rt.NewPool(0, rt.Random)
	b.Cleanup(pool.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(data.Raw(), src)
		fj.RunReal(pool, func(c *fj.Ctx) { spms.FJSort(c, data) })
	}
}
