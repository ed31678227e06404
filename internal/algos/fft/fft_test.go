package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// dftRef computes the reference DFT in plain Go.
func dftRef(x []complex128, sign float64) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			theta := sign * 2 * math.Pi * float64(j*k%n) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, theta))
		}
		out[k] = s
	}
	return out
}

func maxErr(got, want []complex128) float64 {
	var worst float64
	for i := range got {
		if e := cmplx.Abs(got[i] - want[i]); e > worst {
			worst = e
		}
	}
	return worst
}

func randVec(n int, rng *rand.Rand) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

func runForward(p int, x []complex128, s core.Scheduler) ([]complex128, core.Result) {
	m := machine.New(machine.Default(p))
	src := mem.NewCArray(m.Space, int64(len(x)))
	dst := mem.NewCArray(m.Space, int64(len(x)))
	src.CopyIn(x)
	res := core.NewEngine(m, s, core.Options{}).Run(Forward(src, dst))
	return dst.CopyOut(), res
}

func TestForwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		for _, p := range []int{1, 4, 8} {
			x := randVec(n, rng)
			got, _ := runForward(p, x, sched.NewPWS())
			want := dftRef(x, -1)
			if e := maxErr(got, want); e > 1e-6*float64(n) {
				t.Errorf("n=%d p=%d: max error %g", n, p, e)
			}
		}
	}
}

func TestForwardRWS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randVec(256, rng)
	got, _ := runForward(8, x, sched.NewRWS(17))
	if e := maxErr(got, dftRef(x, -1)); e > 1e-6*256 {
		t.Errorf("RWS: max error %g", e)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 16, 256} {
		x := randVec(n, rng)
		m := machine.New(machine.Default(4))
		src := mem.NewCArray(m.Space, int64(n))
		mid := mem.NewCArray(m.Space, int64(n))
		back := mem.NewCArray(m.Space, int64(n))
		src.CopyIn(x)
		core.NewEngine(m, sched.NewPWS(), core.Options{}).Run(Forward(src, mid))
		core.NewEngine(machineReuse(m), sched.NewPWS(), core.Options{}).Run(Inverse(mid, back))
		if e := maxErr(back.CopyOut(), x); e > 1e-9*float64(n) {
			t.Errorf("n=%d: round-trip error %g", n, e)
		}
	}
}

// machineReuse builds a fresh machine sharing the old address space, so a
// second computation can read the first one's output.
func machineReuse(old *machine.Machine) *machine.Machine {
	m := machine.New(old.Cfg)
	m.Space = old.Space
	return m
}

func TestImpulseAndConstant(t *testing.T) {
	// DFT of a unit impulse is all-ones; DFT of all-ones is n·δ₀.
	n := 64
	imp := make([]complex128, n)
	imp[0] = 1
	got, _ := runForward(4, imp, sched.NewPWS())
	for i, v := range got {
		if cmplx.Abs(v-1) > 1e-9 {
			t.Fatalf("impulse: X[%d] = %v, want 1", i, v)
		}
	}
	ones := make([]complex128, n)
	for i := range ones {
		ones[i] = 1
	}
	got, _ = runForward(4, ones, sched.NewPWS())
	if cmplx.Abs(got[0]-complex(float64(n), 0)) > 1e-9 {
		t.Fatalf("constant: X[0] = %v, want %d", got[0], n)
	}
	for i := 1; i < n; i++ {
		if cmplx.Abs(got[i]) > 1e-9 {
			t.Fatalf("constant: X[%d] = %v, want 0", i, got[i])
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 256
	x := randVec(n, rng)
	got, _ := runForward(4, x, sched.NewPWS())
	var ein, eout float64
	for i := range x {
		ein += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		eout += real(got[i])*real(got[i]) + imag(got[i])*imag(got[i])
	}
	if math.Abs(eout-float64(n)*ein)/(float64(n)*ein) > 1e-9 {
		t.Errorf("Parseval: ‖X‖²=%g, n·‖x‖²=%g", eout, float64(n)*ein)
	}
}

func TestFFTCritPathShape(t *testing.T) {
	// T∞ = O(log n · log log n): quadrupling n should grow T∞ by a modest
	// factor, far below the ~4× of work/p.
	cp := func(n int) int64 {
		x := make([]complex128, n)
		x[0] = 1
		_, res := runForward(1, x, sched.NewPWS())
		return res.CritPath
	}
	c1, c2 := cp(256), cp(1024)
	if ratio := float64(c2) / float64(c1); ratio > 2.5 {
		t.Errorf("T∞(1024)/T∞(256) = %.2f — too steep for log n · log log n", ratio)
	}
}

func TestFFTObservation43(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, p := range []int{2, 4, 8} {
		x := randVec(1024, rng)
		_, res := runForward(p, x, sched.NewPWS())
		_ = x
		if max := res.MaxStealsPerPrio(); max > int64(p-1) {
			t.Errorf("p=%d: %d steals at one priority, want ≤ %d", p, max, p-1)
		}
	}
}
