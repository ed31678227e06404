package registry

import (
	"math"
	"math/cmplx"

	"repro/internal/algos/fft"
	"repro/internal/algos/gather"
	"repro/internal/algos/listrank"
	"repro/internal/algos/mat"
	"repro/internal/algos/matmul"
	"repro/internal/algos/scan"
	"repro/internal/algos/sortx"
	"repro/internal/algos/spms"
	"repro/internal/algos/strassen"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
)

// The fj catalog: every kernel here has exactly one algorithm source (the
// FJ* function in its internal/algos package, written against internal/fj)
// and is registered under BOTH backends — the sim lowering builds a
// core.Node tree for the simulated multicore, the real lowering schedules
// the same source on internal/rt.  TestCrossBackendEquality holds the two
// lowerings to byte-identical outputs.

// FJWork is one prepared fj kernel invocation: a backend-neutral root task,
// an output verifier, and the canonical word dump of the kernel's output
// (what the cross-backend equality gate compares).
type FJWork struct {
	Root   func(*fj.Ctx)
	Verify func() bool
	Output func() []int64
}

// FJKernel is a unified kernel: one fork-join source lowered to both
// backends.
type FJKernel struct {
	Name string
	Desc string
	// SimSizes is the sim-backend n-sweep (ascending, simulator-scale).
	SimSizes []int64
	// InputWords converts n to the input size in words.
	InputWords func(n int64) int64
	// Size picks the real-backend problem size (quick vs full sweeps).
	Size func(quick bool) int
	// Setup allocates seeded inputs in env (sim or real) and returns the
	// work unit.  Kernels are built so the two lowerings produce
	// byte-identical Output for equal (n, seed).
	Setup func(env *fj.Env, n int64, seed uint64) FJWork
}

// simKernel synthesizes the registry's sim-backend view of an fj kernel.
func (f *FJKernel) simKernel() *SimKernel {
	return &SimKernel{
		Name: f.Name, Desc: f.Desc,
		Typ: "fj", F: "-", L: "-", W: "-", TInf: "-", Q: "-",
		Sizes:      f.SimSizes,
		InputWords: f.InputWords,
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			w := f.Setup(fj.NewSimEnv(m), n, seed)
			return fj.SimNode(f.InputWords(n), f.Name, w.Root)
		},
	}
}

// realKernel synthesizes the registry's real-backend view of an fj kernel.
func (f *FJKernel) realKernel() *RealKernel {
	return &RealKernel{
		Name: f.Name, Desc: f.Desc,
		Size: f.Size,
		Setup: func(n int, seed uint64) RealWork {
			w := f.Setup(fj.NewRealEnv(), int64(n), seed)
			return RealWork{
				Run:    func(rc *rt.Ctx) { fj.RunOn(rc, w.Root) },
				Verify: w.Verify,
			}
		},
	}
}

// fjProbes is how many output samples the O(n)-per-sample verifiers check.
const fjProbes = 8

var fjCatalog = []FJKernel{
	{
		Name: "matmul", Desc: "cache-oblivious Depth-n-MM recursion on float64 matrices",
		SimSizes:   []int64{16, 32},
		InputWords: func(n int64) int64 { return n * n },
		Size:       func(quick bool) int { return pickSize(quick, 128, 256) },
		Setup: func(env *fj.Env, n int64, seed uint64) FJWork {
			a, b, out := env.F64(n*n), env.F64(n*n), env.F64(n*n)
			fillF64(a, seed+1)
			fillF64(b, seed+2)
			return FJWork{
				Root:   func(c *fj.Ctx) { matmul.FJMul(c, a, b, out, n) },
				Verify: func() bool { return probeProductF(a, b, out, n, seed) },
				Output: out.Words,
			}
		},
	},
	{
		Name: "strassen", Desc: "Strassen multiplication with parallel recursive products",
		SimSizes:   []int64{16, 32},
		InputWords: func(n int64) int64 { return n * n },
		Size:       func(quick bool) int { return pickSize(quick, 128, 256) },
		Setup: func(env *fj.Env, n int64, seed uint64) FJWork {
			a, b, out := env.I64(n*n), env.I64(n*n), env.I64(n*n)
			fillI64(a, seed+3, 10)
			fillI64(b, seed+4, 10)
			return FJWork{
				Root:   func(c *fj.Ctx) { strassen.FJMul(c, a, b, out, n) },
				Verify: func() bool { return probeProductI(a, b, out, n, seed) },
				Output: out.Words,
			}
		},
	},
	{
		Name: "sortx", Desc: "merge sort with merge-path parallel merge",
		SimSizes:   []int64{512, 2048},
		InputWords: func(n int64) int64 { return n },
		Size:       func(quick bool) int { return pickSize(quick, 1<<16, 1<<19) },
		Setup: func(env *fj.Env, n int64, seed uint64) FJWork {
			data := env.I64(n)
			fillI64(data, seed+5, 1<<30)
			var sum int64
			for i := int64(0); i < n; i++ {
				sum += data.Load(i)
			}
			return FJWork{
				Root: func(c *fj.Ctx) { sortx.FJSort(c, data) },
				Verify: func() bool {
					var got int64
					for i := int64(0); i < n; i++ {
						got += data.Load(i)
						if i > 0 && data.Load(i-1) > data.Load(i) {
							return false
						}
					}
					return got == sum
				},
				Output: data.Words,
			}
		},
	},
	{
		Name: "spms", Desc: "SPMS sort: √n-way recursion with full k-way sample-partition merges",
		// Both sizes sit well above the simulated cache (M = 1024 words) so
		// the EXP14 constant fit lands where capacity misses and steal
		// excesses are already live: the k-way merge's serial sample passes
		// keep the parallel excess near zero until the bucket recursion is
		// deep enough to matter, which needs n ≥ 4096.
		SimSizes:   []int64{4096, 8192},
		InputWords: func(n int64) int64 { return n },
		Size:       func(quick bool) int { return pickSize(quick, 1<<16, 1<<19) },
		Setup: func(env *fj.Env, n int64, seed uint64) FJWork {
			data := env.I64(n)
			fillI64(data, seed+12, 1<<30)
			var sum int64
			for i := int64(0); i < n; i++ {
				sum += data.Load(i)
			}
			return FJWork{
				Root: func(c *fj.Ctx) { spms.FJSort(c, data) },
				Verify: func() bool {
					var got int64
					for i := int64(0); i < n; i++ {
						got += data.Load(i)
						if i > 0 && data.Load(i-1) > data.Load(i) {
							return false
						}
					}
					return got == sum
				},
				Output: data.Words,
			}
		},
	},
	{
		Name: "scan", Desc: "three-phase parallel prefix sums",
		SimSizes:   []int64{1024, 4096},
		InputWords: func(n int64) int64 { return n },
		Size:       func(quick bool) int { return pickSize(quick, 1<<19, 1<<21) },
		Setup: func(env *fj.Env, n int64, seed uint64) FJWork {
			in, out := env.I64(n), env.I64(n)
			fillI64Signed(in, seed+6)
			return FJWork{
				Root: func(c *fj.Ctx) { scan.FJPrefix(c, in, out) },
				Verify: func() bool {
					var s int64
					for i := int64(0); i < n; i++ {
						s += in.Load(i)
						if out.Load(i) != s {
							return false
						}
					}
					return true
				},
				Output: out.Words,
			}
		},
	},
	{
		Name: "fft", Desc: "parallel decimation-in-time FFT",
		SimSizes:   []int64{128, 512},
		InputWords: func(n int64) int64 { return 2 * n },
		Size:       func(quick bool) int { return pickSize(quick, 1<<13, 1<<15) },
		Setup: func(env *fj.Env, n int64, seed uint64) FJWork {
			data := env.C128(n)
			orig := make([]complex128, n)
			g := LCG(seed + 7)
			for i := int64(0); i < n; i++ {
				re := float64(g.Next()%1000)/1000 - 0.5
				im := float64(g.Next()%1000)/1000 - 0.5
				data.Store(i, complex(re, im))
				orig[i] = complex(re, im)
			}
			return FJWork{
				Root:   func(c *fj.Ctx) { fft.FJForward(c, data) },
				Verify: func() bool { return probeDFT(orig, data, seed) },
				Output: data.Words,
			}
		},
	},
	{
		Name: "transpose", Desc: "cache-oblivious rectangular transpose on float64 matrices",
		SimSizes:   []int64{32, 64},
		InputWords: func(n int64) int64 { return n * n },
		Size:       func(quick bool) int { return pickSize(quick, 512, 1024) },
		Setup: func(env *fj.Env, n int64, seed uint64) FJWork {
			src, dst := env.F64(n*n), env.F64(n*n)
			fillF64(src, seed+8)
			return FJWork{
				Root: func(c *fj.Ctx) { mat.FJTranspose(c, src, dst, n, n) },
				Verify: func() bool {
					if n == 0 {
						return true
					}
					g := LCG(seed + 97)
					for t := 0; t < fjProbes; t++ {
						i, j := g.Next()%n, g.Next()%n
						if dst.Load(j*n+i) != src.Load(i*n+j) {
							return false
						}
					}
					return true
				},
				Output: dst.Words,
			}
		},
	},
	{
		Name: "gather", Desc: "parallel gather out[i] = vals[idx[i]] over a partial permutation",
		SimSizes:   []int64{512, 2048},
		InputWords: func(n int64) int64 { return 2 * n },
		Size:       func(quick bool) int { return pickSize(quick, 1<<18, 1<<20) },
		Setup: func(env *fj.Env, n int64, seed uint64) FJWork {
			idx, vals, out := env.I64(n), env.I64(n), env.I64(n)
			fillPartialPerm(idx, n, seed+9)
			fillI64(vals, seed+10, 1<<30)
			const sentinel = -1
			return FJWork{
				Root: func(c *fj.Ctx) { gather.FJGather(c, idx, vals, out, sentinel) },
				Verify: func() bool {
					if n == 0 {
						return true
					}
					g := LCG(seed + 96)
					for t := 0; t < fjProbes; t++ {
						i := g.Next() % n
						want := int64(sentinel)
						if k := idx.Load(i); k >= 0 {
							want = vals.Load(k)
						}
						if out.Load(i) != want {
							return false
						}
					}
					return true
				},
				Output: out.Words,
			}
		},
	},
	{
		Name: "listrank", Desc: "list ranking by double-buffered pointer jumping",
		SimSizes:   []int64{256, 1024},
		InputWords: func(n int64) int64 { return n },
		Size:       func(quick bool) int { return pickSize(quick, 1<<14, 1<<16) },
		Setup: func(env *fj.Env, n int64, seed uint64) FJWork {
			succ, rank := env.I64(n), env.I64(n)
			head := fillPermList(succ, n, seed+11)
			return FJWork{
				Root: func(c *fj.Ctx) { listrank.FJRank(c, succ, rank) },
				Verify: func() bool {
					// Walk the list serially: ranks must descend from n−1 to 0.
					at, want := head, n-1
					for at >= 0 {
						if rank.Load(at) != want {
							return false
						}
						at = succ.Load(at)
						want--
					}
					return want == -1
				},
				Output: rank.Words,
			}
		},
	},
}

func pickSize(quick bool, q, full int) int {
	if quick {
		return q
	}
	return full
}

// fillI64 fills v with seeded values in [0, mod).
func fillI64(v fj.I64, seed uint64, mod int64) {
	g := LCG(seed)
	for i := int64(0); i < v.Len(); i++ {
		v.Store(i, g.Next()%mod)
	}
}

// fillI64Signed fills v with seeded values in [−500, 500).
func fillI64Signed(v fj.I64, seed uint64) {
	g := LCG(seed)
	for i := int64(0); i < v.Len(); i++ {
		v.Store(i, g.Next()%1000-500)
	}
}

// fillF64 fills v with seeded values in [−0.5, 0.5).
func fillF64(v fj.F64, seed uint64) {
	g := LCG(seed)
	for i := int64(0); i < v.Len(); i++ {
		v.Store(i, float64(g.Next()%2048)/2048-0.5)
	}
}

// fillPartialPerm makes idx a seeded partial permutation of [0, n) with
// every 7th slot negative (exercising the sentinel path).
func fillPartialPerm(idx fj.I64, n int64, seed uint64) {
	g := LCG(seed)
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := g.Next() % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := int64(0); i < n; i++ {
		if i%7 == 3 {
			idx.Store(i, -1)
		} else {
			idx.Store(i, perm[i])
		}
	}
}

// fillPermList stores a seeded random-permutation linked list in succ
// (−1 terminates the tail) and returns the head node (−1 for an empty
// list).
func fillPermList(succ fj.I64, n int64, seed uint64) int64 {
	if n == 0 {
		return -1
	}
	g := LCG(seed)
	order := make([]int64, n)
	for i := range order {
		order[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := g.Next() % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for k := int64(0); k < n; k++ {
		if k == n-1 {
			succ.Store(order[k], -1)
		} else {
			succ.Store(order[k], order[k+1])
		}
	}
	return order[0]
}

// nonFinite reports whether x is NaN or ±Inf; nonFiniteC whether either part
// of z is.
func nonFinite(x float64) bool     { return math.IsNaN(x) || math.IsInf(x, 0) }
func nonFiniteC(z complex128) bool { return nonFinite(real(z)) || nonFinite(imag(z)) }

// probeProductF recomputes fjProbes entries of out = a·b directly.  An entry
// passes when it is within tolerance of the recomputed value — written so a
// NaN fails — or when both are non-finite: on NaN/Inf inputs the order of
// summation decides which non-finite value comes out.
func probeProductF(a, b, out fj.F64, n int64, seed uint64) bool {
	if n == 0 {
		return true
	}
	g := LCG(seed + 99)
	for t := 0; t < fjProbes; t++ {
		i, j := g.Next()%n, g.Next()%n
		var s float64
		for k := int64(0); k < n; k++ {
			s += a.Load(i*n+k) * b.Load(k*n+j)
		}
		got := out.Load(i*n + j)
		if !(math.Abs(got-s) <= 1e-6*float64(n)) && !(nonFinite(got) && nonFinite(s)) {
			return false
		}
	}
	return true
}

// probeProductI recomputes fjProbes entries of the integer product exactly.
func probeProductI(a, b, out fj.I64, n int64, seed uint64) bool {
	if n == 0 {
		return true
	}
	g := LCG(seed + 99)
	for t := 0; t < fjProbes; t++ {
		i, j := g.Next()%n, g.Next()%n
		var s int64
		for k := int64(0); k < n; k++ {
			s += a.Load(i*n+k) * b.Load(k*n+j)
		}
		if out.Load(i*n+j) != s {
			return false
		}
	}
	return true
}

// probeDFT recomputes fjProbes frequency bins of the DFT directly, with
// probeProductF's acceptance rule.
func probeDFT(in []complex128, out fj.C128, seed uint64) bool {
	n := int64(len(in))
	if n == 0 {
		return true
	}
	g := LCG(seed + 98)
	for t := 0; t < fjProbes; t++ {
		k := g.Next() % n
		var s complex128
		for j := int64(0); j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += in[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		got := out.Load(k)
		if !(cmplx.Abs(got-s) <= 1e-6*float64(n)) && !(nonFiniteC(got) && nonFiniteC(s)) {
			return false
		}
	}
	return true
}
