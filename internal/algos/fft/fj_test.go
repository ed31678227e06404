package fft

import (
	"math/cmplx"
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
			pool := rt.NewPoolLayout(p, rt.Random, layout)
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
