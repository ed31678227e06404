package fft

import (
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

func fillSignal(v fj.C128, seed uint64) {
	s := seed*2654435761 + 1
	for i := int64(0); i < v.Len(); i++ {
		s = s*6364136223846793005 + 1442695040888963407
		re := float64(s>>40)/float64(1<<24) - 0.5
		s = s*6364136223846793005 + 1442695040888963407
		im := float64(s>>40)/float64(1<<24) - 0.5
		v.Store(i, complex(re, im))
	}
}

func TestFJForwardRealMatchesDFT(t *testing.T) {
	const n = 1 << 10
	env := fj.NewRealEnv()
	orig := env.C128(n)
	fillSignal(orig, 5)
	ref := make([]complex128, n)
	for i := range ref {
		ref[i] = orig.Load(int64(i))
	}
	want := dftRef(ref, -1)
	for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
		for _, p := range []int{1, 4} {
			data := env.C128(n)
			for i := int64(0); i < n; i++ {
				data.Store(i, orig.Load(i))
			}
			pool := rt.NewPoolLayout(p, layout)
			t.Cleanup(pool.Close)
			fj.RunReal(pool, func(c *fj.Ctx) { FJForward(c, data) })
			for i := range want {
				if cmplx.Abs(data.Load(int64(i))-want[i]) > 1e-6*float64(n) {
					t.Fatalf("layout=%v p=%d: out[%d] = %v, want %v", layout, p, i, data.Load(int64(i)), want[i])
				}
			}
		}
	}
}

func TestFJForwardSimMatchesDFT(t *testing.T) {
	const n = 128
	m := machine.New(machine.Default(4))
	env := fj.NewSimEnv(m)
	data := env.C128(n)
	fillSignal(data, 9)
	ref := make([]complex128, n)
	for i := range ref {
		ref[i] = data.Load(int64(i))
	}
	want := dftRef(ref, -1)
	fj.RunSim(m, sched.NewPWS(), core.Options{}, 4*n, "fft", func(c *fj.Ctx) {
		FJForward(c, data)
	})
	for i := range want {
		if cmplx.Abs(data.Load(int64(i))-want[i]) > 1e-6*float64(n) {
			t.Fatalf("out[%d] = %v, want %v", i, data.Load(int64(i)), want[i])
		}
	}
}

// onPool runs fn as an fj root on a p-worker pool.
func onPool(t *testing.T, p int, fn func(c *fj.Ctx)) {
	t.Helper()
	pool := rt.NewPool(p, rt.Random)
	defer pool.Close()
	fj.RunReal(pool, fn)
}

// TestTwiddleTableBitIdentical holds the table to the formula it replaces:
// for every root size n ≤ 2¹⁶ and every level m ≤ n, the entry level m reads,
// tw_n[k·n/m], has the bits of the twiddle the recursion computes at that
// level, complex(cos(a_m·k), sin(a_m·k)) with a_m = −2π/m.
func TestTwiddleTableBitIdentical(t *testing.T) {
	onPool(t, 2, func(c *fj.Ctx) {
		for n := int64(2); n <= 1<<16; n *= 2 {
			tw, _ := twiddles(c, n)
			if int64(len(tw)) != n/2 {
				t.Fatalf("n=%d: table of %d entries, want %d", n, len(tw), n/2)
			}
			for m := int64(2); m <= n; m *= 2 {
				ang := -2 * math.Pi / float64(m)
				for k := int64(0); k < m/2; k++ {
					want := complex(math.Cos(ang*float64(k)), math.Sin(ang*float64(k)))
					got := tw[k*n/m]
					if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
						math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
						t.Fatalf("n=%d m=%d k=%d: table holds %v, the formula gives %v", n, m, k, got, want)
					}
				}
			}
		}
		// Above the cache's limit the table is the call's own arena scratch,
		// the same values, and nothing is retained.
		const big = int64(2) << twiddleCacheMaxLog
		tw, scratch := twiddles(c, big)
		if scratch.Len() != big/2 || &scratch.Raw()[0] != &tw[0] {
			t.Fatalf("n=%d: table is not the returned scratch view", big)
		}
		ang := -2 * math.Pi / float64(big)
		for _, k := range []int64{0, 1, big / 8, big/2 - 1} {
			if want := complex(math.Cos(ang*float64(k)), math.Sin(ang*float64(k))); tw[k] != want {
				t.Errorf("n=%d k=%d: scratch table holds %v, the formula gives %v", big, k, tw[k], want)
			}
		}
		c.FreeC128(scratch)
	})
}

// refRec is the kernel's recursion as it was before the real lowering had a
// leaf and a table — down to single elements, every twiddle computed where
// it is used — kept as the definition the real path is held to.
func refRec(dst []complex128, dOff int64, src []complex128, sOff, stride, n int64) {
	if n == 1 {
		dst[dOff] = src[sOff]
		return
	}
	h := n / 2
	refRec(dst, dOff, src, sOff, 2*stride, h)
	refRec(dst, dOff+h, src, sOff+stride, 2*stride, h)
	ang := -2 * math.Pi / float64(n)
	for k := int64(0); k < h; k++ {
		w := complex(math.Cos(ang*float64(k)), math.Sin(ang*float64(k)))
		t := w * dst[dOff+h+k]
		e := dst[dOff+k]
		dst[dOff+k] = e + t
		dst[dOff+h+k] = e - t
	}
}

// TestFFTLeafCutoffInvariant compares the real lowering with refRec word for
// word, for n = 1 … 2¹⁴ at p ∈ {1, 2, 4}: through FJForward, and through
// forwardReal at leaf sizes from "no leaf" to "all leaf".  The second signal
// carries −0 and ±Inf, whose handling a reordered or skipped operation
// would change.
func TestFFTLeafCutoffInvariant(t *testing.T) {
	sameWords := func(got fj.C128, want []complex128) bool {
		return slices.Equal(got.Words(), fj.WrapC128(want).Words())
	}
	for n := int64(1); n <= 1<<14; n *= 2 {
		for _, special := range []bool{false, true} {
			env := fj.NewRealEnv()
			orig := env.C128(n)
			fillSignal(orig, uint64(n)+3)
			if special && n >= 8 {
				orig.Store(1, complex(math.Copysign(0, -1), 0))
				orig.Store(n/2, complex(math.Inf(1), -1))
				orig.Store(n-1, complex(2, math.Inf(-1)))
			}
			want := make([]complex128, n)
			refRec(want, 0, orig.Raw(), 0, 1, n)
			for _, p := range []int{1, 2, 4} {
				onPool(t, p, func(c *fj.Ctx) {
					data := env.C128(n)
					data.CopyFrom(orig)
					FJForward(c, data)
					if !sameWords(data, want) {
						t.Errorf("n=%d p=%d special=%v: FJForward differs from the recursion", n, p, special)
					}
					for _, leaf := range []int64{1, 2, 16, FJFFTGrainReal, n} {
						if n < 2 {
							break // FJForward returns before forwardReal
						}
						data.CopyFrom(orig)
						src := c.ScratchC128(n)
						forwardReal(c, data.Raw(), src.Raw(), leaf)
						c.FreeC128(src)
						if !sameWords(data, want) {
							t.Errorf("n=%d p=%d special=%v leaf=%d: forwardReal differs from the recursion", n, p, special, leaf)
						}
					}
				})
			}
		}
	}
}
