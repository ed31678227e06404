package repro

// Go benchmarks of the fj real lowering — every real kernel at one size each,
// on a reused pool — for measuring while working on a kernel (-benchmem
// shows the arena discipline in allocs/op).  The benchmark smoke gate of
// scripts/run_all.sh runs each for one iteration.  The repository's
// performance record is benchmark/ (kernels_direct against stock Go), not
// these: a loop that reruns one kernel keeps its data in cache and its
// branches learned, which kernels_direct's interleaving does not.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/algos/matmul"
	"repro/internal/algos/registry"
	"repro/internal/algos/sortx"
	"repro/internal/fj"
	"repro/internal/rt"
)

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

// --- the benchmarks --------------------------------------------------------

// The Real* benchmarks reuse one pool across iterations — the steady state
// the kernel service runs in, and the regime where the fj arena discipline
// (recycled slabs, pooled fork frames) shows up in allocs/op.
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

// BenchmarkRealSortSweep times the served sort (sortx) against slices.Sort
// on the same keys at 2¹⁶, 2¹⁹ and 2²² keys, on pools of 1 and 2 workers.
// slices.Sort is serial, so it runs once per size.  Each run sorts a fresh
// copy of the keys; the copy is timed on both sides.
func BenchmarkRealSortSweep(b *testing.B) {
	for _, lg := range []int{16, 19, 22} {
		n := 1 << lg
		src := benchKeys(n, 3)
		b.Run(fmt.Sprintf("n=2^%d/stock", lg), func(b *testing.B) {
			data := make([]int64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(data, src)
				slices.Sort(data)
			}
		})
		for _, p := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=2^%d/sortx/p=%d", lg, p), func(b *testing.B) {
				data := fj.NewRealEnv().I64(int64(n))
				pool := rt.NewPool(p, rt.Random)
				b.Cleanup(pool.Close)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(data.Raw(), src)
					fj.RunReal(pool, func(c *fj.Ctx) { sortx.FJSort(c, data) })
				}
			})
		}
	}
}

// benchKernel times the named catalog kernel's real lowering at size n on
// the catalog's own seeded payload (what kernels_direct and the service run),
// on a pool of p workers (p <= 0: GOMAXPROCS).
func benchKernel(b *testing.B, name string, n int64, p int) {
	for _, k := range registry.RealKernels() {
		if k.Name != name {
			continue
		}
		work := k.Setup(fj.NewRealEnv(), n, 3)
		pool := rt.NewPool(p, rt.Random)
		b.Cleanup(pool.Close)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fj.RunReal(pool, work.Root)
		}
		return
	}
	b.Fatalf("no fj kernel %q", name)
}

// The other six kernels, at the sizes the repository's benchmark uses.
func BenchmarkRealStrassenFJ(b *testing.B) { benchKernel(b, "strassen", 256, 0) }
func BenchmarkRealFFTFJ(b *testing.B)      { benchKernel(b, "fft", 1<<16, 0) }
func BenchmarkRealGatherFJ(b *testing.B)   { benchKernel(b, "gather", 1<<20, 0) }
func BenchmarkRealListrankFJ(b *testing.B) { benchKernel(b, "listrank", 1<<15, 0) }
func BenchmarkRealScanFJ(b *testing.B)     { benchKernel(b, "scan", 1<<21, 0) }

// BenchmarkRealTransposeFJ's p=1 arm times the serial leaf alone (one
// worker never forks a stolen half), so the leaf's store order reads
// directly; p=max is the kernel as kernels_direct's pn pass runs it.
func BenchmarkRealTransposeFJ(b *testing.B) {
	b.Run("p=1", func(b *testing.B) { benchKernel(b, "transpose", 1024, 1) })
	b.Run("p=max", func(b *testing.B) { benchKernel(b, "transpose", 1024, 0) })
}
