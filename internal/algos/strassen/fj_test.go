package strassen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

func naiveMulI(a, b []int64, n int) []int64 {
	out := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			av := a[i*n+k]
			for j := 0; j < n; j++ {
				out[i*n+j] += av * b[k*n+j]
			}
		}
	}
	return out
}

func fillSmallInts(v fj.I64, seed uint64) {
	s := seed*2654435761 + 1
	for i := int64(0); i < v.Len(); i++ {
		s = s*6364136223846793005 + 1442695040888963407
		v.Store(i, int64(s>>33)%10)
	}
}

func TestFJMulRealMatchesNaive(t *testing.T) {
	const n = 128
	env := fj.NewRealEnv()
	a, b := env.I64(n*n), env.I64(n*n)
	fillSmallInts(a, 1)
	fillSmallInts(b, 2)
	want := naiveMulI(a.Raw(), b.Raw(), n)
	for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
		for _, p := range []int{1, 4} {
			out := env.I64(n * n)
			pool := rt.NewPoolLayout(p, rt.Random, layout)
			t.Cleanup(pool.Close)
			fj.RunReal(pool, func(c *fj.Ctx) { FJMul(c, a, b, out, n) })
			for i := range want {
				if out.Load(int64(i)) != want[i] {
					t.Fatalf("layout=%v p=%d: out[%d] = %d, want %d", layout, p, i, out.Load(int64(i)), want[i])
				}
			}
		}
	}
}

func TestFJMulSimMatchesNaive(t *testing.T) {
	const n = 16
	m := machine.New(machine.Default(4))
	env := fj.NewSimEnv(m)
	a, b, out := env.I64(n*n), env.I64(n*n), env.I64(n*n)
	fillSmallInts(a, 3)
	fillSmallInts(b, 4)
	ar, br := make([]int64, n*n), make([]int64, n*n)
	for i := int64(0); i < n*n; i++ {
		ar[i], br[i] = a.Load(i), b.Load(i)
	}
	want := naiveMulI(ar, br, n)
	fj.RunSim(m, sched.NewRWS(7), core.Options{}, 3*n*n, "strassen", func(c *fj.Ctx) {
		FJMul(c, a, b, out, n)
	})
	for i := range want {
		if out.Load(int64(i)) != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out.Load(int64(i)), want[i])
		}
	}
}
