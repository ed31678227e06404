package repro

// Go benchmarks of the fj real lowering — all nine kernels at one size each,
// on a reused pool — for measuring while working on a kernel (-benchmem
// shows the arena discipline in allocs/op).  The benchmark smoke gate of
// scripts/run_all.sh runs each for one iteration.  The repository's
// performance record is benchmark/ (kernels_direct against stock Go), not
// these: a loop that reruns one kernel keeps its data in cache and its
// branches learned, which kernels_direct's interleaving does not.

import (
	"testing"

	"repro/internal/algos/matmul"
	"repro/internal/algos/registry"
	"repro/internal/algos/sortx"
	"repro/internal/algos/spms"
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

// BenchmarkRealSortSPMSFJ times the SPMS kernel's real lowering on the same
// keys as the sortx benchmark above.
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

// benchKernel times the named catalog kernel's real lowering at size n on
// the catalog's own seeded payload (what kernels_direct and the service run),
// on a pool of p workers (p <= 0: GOMAXPROCS).
func benchKernel(b *testing.B, name string, n int64, p int) {
	for _, k := range registry.FJKernels() {
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
