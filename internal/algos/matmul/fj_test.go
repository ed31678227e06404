package matmul

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

func naiveMul(a, b []float64, n int) []float64 {
	out := make([]float64, n*n)
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

func fillTestMatrix(v fj.F64, seed int64) {
	s := uint64(seed)*2654435761 + 1
	for i := int64(0); i < v.Len(); i++ {
		s = s*6364136223846793005 + 1442695040888963407
		v.Store(i, float64(s>>40)/float64(1<<24))
	}
}

func TestFJMulRealMatchesNaive(t *testing.T) {
	const n = 128
	env := fj.NewRealEnv()
	a, b := env.F64(n*n), env.F64(n*n)
	fillTestMatrix(a, 1)
	fillTestMatrix(b, 2)
	want := naiveMul(a.Raw(), b.Raw(), n)
	for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
		for _, p := range []int{1, 4} {
			out := env.F64(n * n)
			pool := rt.NewPoolLayout(p, rt.Random, layout)
			t.Cleanup(pool.Close)
			fj.RunReal(pool, func(c *fj.Ctx) { FJMul(c, a, b, out, n) })
			for i := range want {
				if math.Abs(out.Load(int64(i))-want[i]) > 1e-9*float64(n) {
					t.Fatalf("layout=%v p=%d: out[%d] = %g, want %g", layout, p, i, out.Load(int64(i)), want[i])
				}
			}
		}
	}
}

func TestFJMulSimMatchesNaive(t *testing.T) {
	const n = 16
	m := machine.New(machine.Default(4))
	env := fj.NewSimEnv(m)
	a, b, out := env.F64(n*n), env.F64(n*n), env.F64(n*n)
	fillTestMatrix(a, 3)
	fillTestMatrix(b, 4)
	ar := make([]float64, n*n)
	br := make([]float64, n*n)
	for i := int64(0); i < n*n; i++ {
		ar[i], br[i] = a.Load(i), b.Load(i)
	}
	want := naiveMul(ar, br, n)
	res := fj.RunSim(m, sched.NewPWS(), core.Options{}, 3*n*n, "matmul", func(c *fj.Ctx) {
		FJMul(c, a, b, out, n)
	})
	for i := range want {
		if math.Abs(out.Load(int64(i))-want[i]) > 1e-9*float64(n) {
			t.Fatalf("out[%d] = %g, want %g", i, out.Load(int64(i)), want[i])
		}
	}
	if res.Total.ColdMisses == 0 {
		t.Error("sim run charged no cache traffic")
	}
}
