package registry

import (
	"cmp"
	"fmt"
	"math"
	"math/cmplx"
	"slices"

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
)

// The fj catalog: every kernel here has exactly one algorithm source (the
// FJ* function in its internal/algos package, written against internal/fj)
// and exactly one description — a kernel entry of fjCatalog below.  define
// derives the kernel's three faces from it, once, at package init: the
// FJKernel both registry backends and the experiments run, the SimKernel
// the simulator-side drivers see, and the Invocable the service calls by
// name.  All three share the entry's one seeded generator, one run adapter
// and one verifier, so what EXP13 times, what hbptrace simulates and what
// /invoke serves cannot drift apart; TestCrossBackendEquality holds the two
// lowerings to byte-identical outputs and TestCatalogOneSource holds the
// faces to one input.

// kernel is the one description of an fj kernel.  The run adapter is the
// second argument of define: its type depends on the element type, which a
// struct field cannot.
type kernel struct {
	// name keys both registry backends, EXP13's rows and hbptrace -algo;
	// served is the name on /invoke and /kernels ("" = name).
	name, served string
	desc         string
	// payload documents the wire encoding (GET /kernels); shape is its
	// geometry (codec.go).
	payload string
	shape   shape
	// simSizes is the sim-backend n-sweep (ascending, simulator-scale);
	// quick and full are the real-backend sizes of the quick and full sweeps.
	simSizes    []int64
	quick, full int
	// rootWords is the task-size hint |τ| of the sim lowering's root at size
	// n (one operand's words for the matrix products).
	rootWords func(n int64) int64
	// gen builds the seeded size-n payload in wire words; n has passed
	// shape.size.  The per-kernel seed offsets keep every kernel's input
	// stream distinct at equal seeds, and are what they have always been:
	// the committed simulator statistics were recorded on these inputs.
	gen func(n int64, seed uint64) []int64
	// verify checks out against in from scratch, serially and independent of
	// the kernel; it must not panic on any payload shape.check accepts.
	verify func(in, out []int64) bool
}

// FJWork is one prepared fj kernel invocation: a backend-neutral root task,
// an output verifier, and the canonical word dumps of the kernel's input
// and output (what the cross-backend equality gate compares).
type FJWork struct {
	Root   func(*fj.Ctx)
	Verify func() bool
	Input  func() []int64
	Output func() []int64
}

// FJKernel is a unified kernel: one fork-join source lowered to both
// backends.
type FJKernel struct {
	Name string
	Desc string
	// SimSizes is the sim-backend n-sweep (ascending, simulator-scale).
	SimSizes []int64
	// InputWords converts n to the root task's size hint in words.
	InputWords func(n int64) int64
	// Size picks the real-backend problem size (quick vs full sweeps).
	Size func(quick bool) int
	// Setup builds the seeded size-n payload, places it in env (sim or
	// real) and returns the work unit; it panics on a size the kernel's
	// generator rejects.  The two lowerings produce byte-identical Output
	// for equal (n, seed).
	Setup func(env *fj.Env, n int64, seed uint64) FJWork
}

// hostEnv is the Env of a served payload: the request's own words, wrapped
// in place.
var hostEnv = fj.NewRealEnv()

// entry is one kernel's derived faces.
type entry struct {
	fj  FJKernel
	sim SimKernel
	inv Invocable
}

// define derives a kernel's faces from its description and its run adapter.
// run receives the payload's input segments as the shape splits them (each
// its own view, so a simulated operand starts on a block boundary however
// long the one before it is) and the output view; it is written on fj views
// so that it lowers to both backends, must not write in, must define every
// element of out whatever out held before, and may charge the simulator for
// nothing the kernel source does not.
func define[T fj.Elem](k kernel, run func(c *fj.Ctx, in []fj.View[T], out fj.View[T])) *entry {
	sh := k.shape
	// views places the sh.segs equal segments of w in env, a view each.
	views := func(env *fj.Env, w []int64) []fj.View[T] {
		vs := make([]fj.View[T], sh.segs)
		each := len(w) / sh.segs
		for i := range vs {
			vs[i] = fj.ViewOf[T](env, w[i*each:(i+1)*each])
		}
		return vs
	}
	gen := func(n int64, seed uint64) ([]int64, error) {
		if err := sh.size(n); err != nil {
			return nil, err
		}
		return k.gen(n, seed), nil
	}
	e := &entry{}
	e.inv = Invocable{
		Name: cmp.Or(k.served, k.name), Desc: k.desc, Payload: k.payload,
		Validate: sh.check, OutLen: sh.outWords, InWords: sh.inWords,
		Run: func(c *fj.Ctx, in, out []int64) {
			run(c, views(hostEnv, in), fj.ViewOf[T](hostEnv, out))
		},
		Gen: gen, Verify: k.verify,
	}
	e.fj = FJKernel{
		Name: k.name, Desc: k.desc, SimSizes: k.simSizes, InputWords: k.rootWords,
		Size: func(quick bool) int {
			if quick {
				return k.quick
			}
			return k.full
		},
		Setup: func(env *fj.Env, n int64, seed uint64) FJWork {
			payload, err := gen(n, seed)
			if err != nil {
				panic(fmt.Sprintf("registry: %s at n=%d: %v", k.name, n, err))
			}
			in := views(env, payload)
			out := fj.NewView[T](env, sh.outWords(payload)/wordsPer[T]())
			input := func() []int64 {
				var w []int64
				for _, v := range in {
					w = append(w, v.Words()...)
				}
				return w
			}
			return FJWork{
				Root:   func(c *fj.Ctx) { run(c, in, out) },
				Verify: func() bool { return k.verify(input(), out.Words()) },
				Input:  input,
				Output: out.Words,
			}
		},
	}
	e.sim = SimKernel{
		Name: k.name, Desc: k.desc,
		Typ: "fj", F: "-", L: "-", W: "-", TInf: "-", Q: "-",
		Sizes:      k.simSizes,
		InputWords: k.rootWords,
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			return fj.SimNode(m, k.rootWords(n), k.name, e.fj.Setup(fj.NewSimEnv(m), n, seed).Root)
		},
	}
	return e
}

// Root-size hints.
func linear(n int64) int64 { return n }
func double(n int64) int64 { return 2 * n }
func square(n int64) int64 { return n * n }

// sortInPlace adapts an in-place fork-join sort: copy the keys (uncharged
// setup under the simulator, which therefore sees exactly the sort), then
// sort the copy.
func sortInPlace(sort func(*fj.Ctx, fj.I64)) func(*fj.Ctx, []fj.I64, fj.I64) {
	return func(c *fj.Ctx, in []fj.I64, out fj.I64) {
		out.CopyFrom(in[0])
		sort(c, out)
	}
}

var fjCatalog = []*entry{
	define(kernel{
		name: "matmul", desc: "cache-oblivious Depth-n-MM product of two n×n float64 matrices",
		payload: "2n² f64-bit words: row-major A then B (n a power of two); output is A·B",
		shape:   matPairShape, simSizes: []int64{16, 32}, quick: 128, full: 256, rootWords: square,
		gen: func(n int64, seed uint64) []int64 {
			w := make([]int64, 2*n*n)
			fillUnit(w[:n*n], seed+1)
			fillUnit(w[n*n:], seed+2)
			return w
		},
		verify: func(in, out []int64) bool {
			ab, o := fj.WrapWords[float64](in).Raw(), fj.WrapWords[float64](out).Raw()
			return probeProduct(ab, o, probeSeed(in), func(got, want float64, n int64) bool {
				return within(math.Abs(got-want), n, nonFinite(got) && nonFinite(want))
			})
		},
	}, func(c *fj.Ctx, in []fj.F64, out fj.F64) {
		n, _ := squareDim(out.Len(), true)
		// FJMul accumulates (C += A·B) and a served out may be reused;
		// simulated memory is born zeroed, and has no Raw to clear.
		clear(out.Raw())
		matmul.FJMul(c, in[0], in[1], out, n)
	}),
	define(kernel{
		name: "strassen", desc: "Strassen product of two n×n int64 matrices with parallel recursive products",
		payload: "2n² i64 words: row-major A then B (n a power of two); output is A·B",
		shape:   matPairShape, simSizes: []int64{16, 32}, quick: 128, full: 256, rootWords: square,
		gen: func(n int64, seed uint64) []int64 {
			w := make([]int64, 2*n*n)
			fillKeys(w[:n*n], seed+3, 10)
			fillKeys(w[n*n:], seed+4, 10)
			return w
		},
		verify: func(in, out []int64) bool {
			return probeProduct(in, out, probeSeed(in), func(got, want, _ int64) bool { return got == want })
		},
	}, func(c *fj.Ctx, in []fj.I64, out fj.I64) {
		n, _ := squareDim(out.Len(), true)
		strassen.FJMul(c, in[0], in[1], out, n)
	}),
	define(kernel{
		name: "sortx", desc: "merge sort of an int64 key vector with merge-path parallel merge",
		payload: "n i64 keys; output sorted ascending",
		shape:   flatShape, simSizes: []int64{512, 2048}, quick: 1 << 16, full: 1 << 19, rootWords: linear,
		gen:    func(n int64, seed uint64) []int64 { return fillKeys(make([]int64, n), seed+5, 1<<30) },
		verify: verifySorted,
	}, sortInPlace(sortx.FJSort)),
	define(kernel{
		name: "spms", served: "sort",
		desc:    "SPMS sort of an int64 key vector: √n-way recursion with full k-way sample-partition merges",
		payload: "n i64 keys; output sorted ascending",
		// Both sim sizes sit well above the simulated cache (M = 1024 words)
		// so the EXP14 constant fit lands where capacity misses and steal
		// excesses are already live: the k-way merge's serial sample passes
		// keep the parallel excess near zero until the bucket recursion is
		// deep enough to matter, which needs n ≥ 4096.
		shape: flatShape, simSizes: []int64{4096, 8192}, quick: 1 << 16, full: 1 << 19, rootWords: linear,
		gen:    func(n int64, seed uint64) []int64 { return fillKeys(make([]int64, n), seed+12, 1<<30) },
		verify: verifySorted,
	}, sortInPlace(spms.FJSort)),
	define(kernel{
		name: "scan", desc: "three-phase parallel prefix sums over an int64 vector",
		payload: "n i64 values; output[i] = values[0]+…+values[i]",
		shape:   flatShape, simSizes: []int64{1024, 4096}, quick: 1 << 19, full: 1 << 21, rootWords: linear,
		gen: func(n int64, seed uint64) []int64 {
			w := make([]int64, n) // values in [−500, 500)
			g := LCG(seed + 6)
			for i := range w {
				w[i] = g.Next()%1000 - 500
			}
			return w
		},
		verify: func(in, out []int64) bool {
			if len(in) != len(out) {
				return false
			}
			var s int64
			for i := range in {
				s += in[i]
				if out[i] != s {
					return false
				}
			}
			return true
		},
	}, func(c *fj.Ctx, in []fj.I64, out fj.I64) { scan.FJPrefix(c, in[0], out) }),
	define(kernel{
		name: "fft", desc: "parallel decimation-in-time FFT over complex128 samples",
		payload: "2n f64-bit words: re/im interleaved (n a power of two); output is the forward DFT",
		shape:   fftShape, simSizes: []int64{128, 512}, quick: 1 << 13, full: 1 << 15, rootWords: double,
		gen: func(n int64, seed uint64) []int64 {
			w := make([]int64, 2*n) // re, im, re, im, … drawn in that order
			g := LCG(seed + 7)
			for i := range w {
				w[i] = int64(math.Float64bits(float64(g.Next()%1000)/1000 - 0.5))
			}
			return w
		},
		verify: func(in, out []int64) bool {
			if len(out) != len(in) || len(in)%2 != 0 {
				return false
			}
			return probeDFT(fj.WrapWords[complex128](in).Raw(), fj.WrapWords[complex128](out).Raw(), probeSeed(in))
		},
	}, func(c *fj.Ctx, in []fj.C128, out fj.C128) {
		out.CopyFrom(in[0]) // FJForward transforms in place; uncharged setup under the simulator
		fft.FJForward(c, out)
	}),
	define(kernel{
		name: "transpose", desc: "cache-oblivious transpose of an n×n float64 matrix",
		payload: "n² f64-bit words: one row-major square matrix; output is its transpose",
		shape:   squareShape, simSizes: []int64{32, 64}, quick: 512, full: 1024, rootWords: square,
		gen: func(n int64, seed uint64) []int64 { return fillUnit(make([]int64, n*n), seed+8) },
		verify: func(in, out []int64) bool {
			n, err := squareDim(int64(len(in)), false)
			if err != nil || len(out) != len(in) {
				return false
			}
			// A transpose only moves bits, so verify at the word level —
			// exact for every payload, NaN bit patterns included.
			for i := int64(0); i < n; i++ {
				for j := int64(0); j < n; j++ {
					if out[j*n+i] != in[i*n+j] {
						return false
					}
				}
			}
			return true
		},
	}, func(c *fj.Ctx, in []fj.F64, out fj.F64) {
		n, _ := squareDim(out.Len(), false)
		mat.FJTranspose(c, in[0], out, n, n)
	}),
	define(kernel{
		name: "gather", desc: "parallel gather out[i] = vals[idx[i]] over a partial permutation, sentinel −1 for negative indices",
		payload: "2n i64 words: n indices (< n; negative → sentinel) then n values",
		shape:   pairShape, simSizes: []int64{512, 2048}, quick: 1 << 18, full: 1 << 20, rootWords: double,
		gen: func(n int64, seed uint64) []int64 {
			w := make([]int64, 2*n)
			fillPartialPerm(w[:n], seed+9)
			fillKeys(w[n:], seed+10, 1<<30)
			return w
		},
		verify: func(in, out []int64) bool {
			n := len(in) / 2
			if len(in)%2 != 0 || len(out) != n {
				return false
			}
			idx, vals := in[:n], in[n:]
			for i := 0; i < n; i++ {
				want := int64(-1)
				if idx[i] >= 0 {
					want = vals[idx[i]]
				}
				if out[i] != want {
					return false
				}
			}
			return true
		},
	}, func(c *fj.Ctx, in []fj.I64, out fj.I64) { gather.FJGather(c, in[0], in[1], out, -1) }),
	define(kernel{
		name: "listrank", desc: "list ranking by parallel walks of the sublists between evenly spaced rulers (O(n) work)",
		payload: "n i64 successor indices: a single chain, −1 terminates the tail",
		shape:   listShape, simSizes: []int64{256, 1024}, quick: 1 << 14, full: 1 << 16, rootWords: linear,
		gen: func(n int64, seed uint64) []int64 { return permList(n, seed+11) },
		verify: func(in, out []int64) bool {
			n := int64(len(in))
			if int64(len(out)) != n || validList(in) != nil {
				return false
			}
			// Walk the chain serially: ranks must descend from n−1 to 0.
			at, want := listHead(in), n-1
			for at >= 0 {
				if out[at] != want {
					return false
				}
				at = in[at]
				want--
			}
			return want == -1
		},
	}, func(c *fj.Ctx, in []fj.I64, out fj.I64) { listrank.FJRank(c, in[0], out) }),
}

// fillKeys fills w with seeded values in [0, mod) and returns it.
func fillKeys(w []int64, seed uint64, mod int64) []int64 {
	g := LCG(seed)
	for i := range w {
		w[i] = g.Next() % mod
	}
	return w
}

// fillUnit fills w with the bit words of seeded float64 values in
// [−0.5, 0.5) and returns it.
func fillUnit(w []int64, seed uint64) []int64 {
	g := LCG(seed)
	for i := range w {
		w[i] = int64(math.Float64bits(float64(g.Next()%2048)/2048 - 0.5))
	}
	return w
}

// shuffled returns a seeded uniform permutation of [0, n).
func shuffled(n int64, seed uint64) []int64 {
	g := LCG(seed)
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := g.Next() % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// fillPartialPerm makes idx a seeded partial permutation of [0, len(idx))
// with every 7th slot negative (exercising the sentinel path).
func fillPartialPerm(idx []int64, seed uint64) {
	copy(idx, shuffled(int64(len(idx)), seed))
	for i := 3; i < len(idx); i += 7 {
		idx[i] = -1
	}
}

// permList returns the successor array of a seeded random n-node linked
// list (the list-ranking input): a uniform permutation chained head to
// tail, with −1 terminating the last node.
func permList(n int64, seed uint64) []int64 {
	order := shuffled(n, seed)
	succ := make([]int64, n)
	for k, node := range order {
		if k == len(order)-1 {
			succ[node] = -1
		} else {
			succ[node] = order[k+1]
		}
	}
	return succ
}

// verifySorted checks that out is exactly the ascending sort of in.
func verifySorted(in, out []int64) bool {
	want := slices.Clone(in)
	slices.Sort(want)
	return slices.Equal(out, want)
}

// fjProbes is how many output samples the O(n)-per-sample verifiers check.
const fjProbes = 8

// probeSeed seeds a verifier's probe positions from a fold of the payload
// words, so that requests of one size do not all check the same fjProbes
// entries (a kernel bug elsewhere would never be seen) while one payload is
// still always checked the same way.
func probeSeed(in []int64) LCG {
	h := uint64(len(in))
	for _, w := range in {
		h = (h ^ uint64(w)) * 0x100000001b3
	}
	return LCG(h)
}

// nonFinite reports whether x is NaN or ±Inf; nonFiniteC whether either part
// of z is.
func nonFinite(x float64) bool     { return math.IsNaN(x) || math.IsInf(x, 0) }
func nonFiniteC(z complex128) bool { return nonFinite(real(z)) || nonFinite(imag(z)) }

// within is the acceptance rule of the tolerance-checked verifiers, given
// the distance between an output entry and its recomputed n-term sum: the
// entry passes when the distance is within tolerance — written so a NaN
// distance fails — or when both values are non-finite: on NaN/Inf inputs
// the order of summation decides which non-finite value comes out.
func within(dist float64, n int64, bothNonFinite bool) bool {
	return dist <= 1e-6*float64(n) || bothNonFinite
}

// probeProduct recomputes fjProbes entries of out = A·B directly, for the
// row-major n×n A then B in ab, and holds each to match.
func probeProduct[T int64 | float64](ab, out []T, g LCG, match func(got, want T, n int64) bool) bool {
	n, err := matPairDim(int64(len(ab)))
	if err != nil || int64(len(out)) != n*n {
		return false
	}
	if n == 0 {
		return true
	}
	a, b := ab[:n*n], ab[n*n:]
	for t := 0; t < fjProbes; t++ {
		i, j := g.Next()%n, g.Next()%n
		var s T
		for k := int64(0); k < n; k++ {
			s += a[i*n+k] * b[k*n+j]
		}
		if !match(out[i*n+j], s, n) {
			return false
		}
	}
	return true
}

// probeDFT recomputes fjProbes frequency bins of the DFT of in directly.
func probeDFT(in, out []complex128, g LCG) bool {
	n := int64(len(in))
	if n == 0 {
		return true
	}
	for t := 0; t < fjProbes; t++ {
		k := g.Next() % n
		var s complex128
		for j := int64(0); j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += in[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		if !within(cmplx.Abs(out[k]-s), n, nonFiniteC(out[k]) && nonFiniteC(s)) {
			return false
		}
	}
	return true
}
