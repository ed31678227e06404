package matmul

import (
	"math/rand"
	"testing"

	"repro/internal/algos/mat"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
)

func mulRef(a, b [][]int64) [][]int64 {
	n := len(a)
	out := make([][]int64, n)
	for i := range out {
		out[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			var s int64
			for k := 0; k < n; k++ {
				s += a[i][k] * b[k][j]
			}
			out[i][j] = s
		}
	}
	return out
}

func randMat(n int, rng *rand.Rand) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			m[i][j] = int64(rng.Intn(15) - 7)
		}
	}
	return m
}

func TestDepthNMMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		for _, p := range []int{1, 4, 8} {
			m := machine.New(machine.Default(p))
			a := mat.AllocBI(m.Space, int64(n), 1)
			b := mat.AllocBI(m.Space, int64(n), 1)
			out := mat.AllocBI(m.Space, int64(n), 1)
			am, bm := randMat(n, rng), randMat(n, rng)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Set(m.Space, int64(i), int64(j), am[i][j])
					b.Set(m.Space, int64(i), int64(j), bm[i][j])
				}
			}
			core.NewEngine(m, sched.NewPWS(), core.Options{}).Run(Mul(a, b, out))
			want := mulRef(am, bm)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if got := out.Get(m.Space, int64(i), int64(j)); got != want[i][j] {
						t.Fatalf("n=%d p=%d: C(%d,%d)=%d, want %d", n, p, i, j, got, want[i][j])
					}
				}
			}
		}
	}
}

func TestDepthNMMWorkCubic(t *testing.T) {
	work := func(n int64) int64 {
		m := machine.New(machine.Default(1))
		a := mat.AllocBI(m.Space, n, 1)
		b := mat.AllocBI(m.Space, n, 1)
		out := mat.AllocBI(m.Space, n, 1)
		res := core.NewEngine(m, sched.NewPWS(), core.Options{}).Run(Mul(a, b, out))
		return res.Work
	}
	w16, w32 := work(16), work(32)
	ratio := float64(w32) / float64(w16)
	if ratio < 6.5 || ratio > 9.5 {
		t.Errorf("work ratio W(32)/W(16) = %.2f, want ≈8 (cubic)", ratio)
	}
}

func TestDepthNMMCritPathLinear(t *testing.T) {
	// T∞(n) = O(n): doubling n should ~double the critical path.
	cp := func(n int64) int64 {
		m := machine.New(machine.Default(1))
		a := mat.AllocBI(m.Space, n, 1)
		b := mat.AllocBI(m.Space, n, 1)
		out := mat.AllocBI(m.Space, n, 1)
		res := core.NewEngine(m, sched.NewPWS(), core.Options{}).Run(Mul(a, b, out))
		return res.CritPath
	}
	c16, c32 := cp(16), cp(32)
	ratio := float64(c32) / float64(c16)
	if ratio < 1.5 || ratio > 3.2 {
		t.Errorf("critical path ratio T∞(32)/T∞(16) = %.2f, want ≈2 (depth n)", ratio)
	}
}
