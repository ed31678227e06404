package strassen

import (
	"math/rand"
	"testing"

	"repro/internal/algos/mat"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
)

// mulRef computes the reference product on plain Go slices.
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
			m[i][j] = int64(rng.Intn(19) - 9)
		}
	}
	return m
}

func loadBI(m *machine.Machine, v mat.View, src [][]int64) {
	for i := range src {
		for j := range src[i] {
			v.Set(m.Space, int64(i), int64(j), src[i][j])
		}
	}
}

func TestStrassenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		for _, p := range []int{1, 4, 8} {
			m := machine.New(machine.Default(p))
			a := mat.AllocBI(m.Space, int64(n), 1)
			b := mat.AllocBI(m.Space, int64(n), 1)
			out := mat.AllocBI(m.Space, int64(n), 1)
			am, bm := randMat(n, rng), randMat(n, rng)
			loadBI(m, a, am)
			loadBI(m, b, bm)
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

func TestStrassenWorkGrowth(t *testing.T) {
	// W(n) = Θ(n^log2 7): doubling n should multiply work by ~7 (for n
	// well above the cutoff).
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
	if ratio < 5.5 || ratio > 8.5 {
		t.Errorf("work ratio W(32)/W(16) = %.2f, want ≈7 (Strassen exponent)", ratio)
	}
}

func TestStrassenObservation43(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		m := machine.New(machine.Default(p))
		a := mat.AllocBI(m.Space, 16, 1)
		b := mat.AllocBI(m.Space, 16, 1)
		out := mat.AllocBI(m.Space, 16, 1)
		rng := rand.New(rand.NewSource(9))
		loadBI(m, a, randMat(16, rng))
		loadBI(m, b, randMat(16, rng))
		res := core.NewEngine(m, sched.NewPWS(), core.Options{}).Run(Mul(a, b, out))
		if max := res.MaxStealsPerPrio(); max > int64(p-1) {
			t.Errorf("p=%d: %d steals at one priority, want ≤ p−1=%d", p, max, p-1)
		}
	}
}
