package scan

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

func fillVals(v fj.I64, seed uint64) {
	s := seed*2654435761 + 1
	for i := int64(0); i < v.Len(); i++ {
		s = s*6364136223846793005 + 1442695040888963407
		v.Store(i, int64(s>>33)%1000-500)
	}
}

func prefixRef(v fj.I64) []int64 {
	want := make([]int64, v.Len())
	var s int64
	for i := range want {
		s += v.Load(int64(i))
		want[i] = s
	}
	return want
}

func TestFJPrefixRealMatchesSerial(t *testing.T) {
	for _, n := range []int64{0, 1, FJPrefixGrainReal - 1, FJPrefixGrainReal, 10*FJPrefixGrainReal + 17} {
		env := fj.NewRealEnv()
		in := env.I64(n)
		fillVals(in, uint64(n)+1)
		want := prefixRef(in)
		for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
			for _, p := range []int{1, 4} {
				out := env.I64(n)
				pool := rt.NewPoolLayout(p, layout)
				t.Cleanup(pool.Close)
				fj.RunReal(pool, func(c *fj.Ctx) { FJPrefix(c, in, out) })
				for i := range want {
					if out.Load(int64(i)) != want[i] {
						t.Fatalf("n=%d layout=%v p=%d: out[%d] = %d, want %d",
							n, layout, p, i, out.Load(int64(i)), want[i])
					}
				}
			}
		}
	}
}

func TestFJPrefixInPlaceReal(t *testing.T) {
	const n = 3*FJPrefixGrainReal + 5
	env := fj.NewRealEnv()
	in := env.I64(n)
	fillVals(in, 42)
	want := prefixRef(in)
	pool := rt.NewPool(4, rt.Random)
	t.Cleanup(pool.Close)
	fj.RunReal(pool, func(c *fj.Ctx) { FJPrefix(c, in, in) })
	for i := range want {
		if in.Load(int64(i)) != want[i] {
			t.Fatalf("in-place: out[%d] = %d, want %d", i, in.Load(int64(i)), want[i])
		}
	}
}

func TestFJPrefixSimMatchesSerial(t *testing.T) {
	const n = 3*FJPrefixGrainSim + 11
	m := machine.New(machine.Default(4))
	env := fj.NewSimEnv(m)
	in, out := env.I64(n), env.I64(n)
	fillVals(in, 7)
	want := prefixRef(in)
	fj.RunSim(m, sched.NewPWS(), core.Options{}, 2*n, "scan", func(c *fj.Ctx) {
		FJPrefix(c, in, out)
	})
	for i := range want {
		if out.Load(int64(i)) != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out.Load(int64(i)), want[i])
		}
	}
}
