package mat

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

func fillSeqF(v fj.F64) {
	for i := int64(0); i < v.Len(); i++ {
		v.Store(i, float64(i)*0.5+1)
	}
}

func checkTransposed(t *testing.T, src, dst fj.F64, r, cols int64, tag string) {
	t.Helper()
	for i := int64(0); i < r; i++ {
		for j := int64(0); j < cols; j++ {
			if got, want := dst.Load(j*r+i), src.Load(i*cols+j); got != want {
				t.Fatalf("%s: dst[%d,%d] = %g, want %g", tag, j, i, got, want)
			}
		}
	}
}

// poison is a NaN bit pattern no fillSeqF value has: a dst word a run left
// unwritten compares unequal to every src word.
var poison = math.Float64frombits(0x7ff4_dead_beef_0001)

// TestFJTransposeReal runs shapes on both sides of the real leaf area
// (FJTGrainReal = 64×64): one leaf, one row or column past it, and long thin
// shapes that split only one way.  dst is poisoned before the run, so an
// unwritten word fails whatever the allocator handed back.
func TestFJTransposeReal(t *testing.T) {
	for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
		for _, p := range []int{1, 2, 4} {
			pool := rt.NewPoolLayout(p, layout)
			t.Cleanup(pool.Close)
			for _, dims := range [][2]int64{
				{64, 64}, {16, 128}, {96, 32}, {1, 64}, {64, 1},
				{65, 64}, {64, 65}, {1, 4097}, {4097, 1}, {100, 300}, {128, 128},
			} {
				r, cols := dims[0], dims[1]
				env := fj.NewRealEnv()
				src, dst := env.F64(r*cols), env.F64(r*cols)
				fillSeqF(src)
				d := dst.Raw()
				for i := range d {
					d[i] = poison
				}
				fj.RunReal(pool, func(c *fj.Ctx) { FJTranspose(c, src, dst, r, cols) })
				checkTransposed(t, src, dst, r, cols, fmt.Sprintf("real %dx%d layout %v p=%d", r, cols, layout, p))
			}
		}
	}
}

func TestFJTransposeSim(t *testing.T) {
	const r, cols = 32, 16
	m := machine.New(machine.Default(4))
	env := fj.NewSimEnv(m)
	src, dst := env.F64(r*cols), env.F64(r*cols)
	fillSeqF(src)
	fj.RunSim(m, sched.NewPWS(), core.Options{}, 2*r*cols, "transpose", func(c *fj.Ctx) {
		FJTranspose(c, src, dst, r, cols)
	})
	checkTransposed(t, src, dst, r, cols, "sim")
}
