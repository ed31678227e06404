package registry

import (
	"testing"

	"repro/internal/algos/sortx"
	"repro/internal/algos/spms"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

// TestCrossSortPermutationsAgree is the cross-kernel property gate: spms
// and sortx must produce the identical word sequence on duplicate-heavy
// inputs, on both lowerings.  Keys are exact int64 and a sorted multiset
// has a unique word sequence, so the two kernels agreeing is exactly the
// statement that both are correct sorts — and because both route every
// serial split, bound, and merge through the shared sortutil tie-break
// conventions (TestTieBreakConventionsAgree pins those to each other), a
// divergence here means one kernel drifted off the shared machinery.
func TestCrossSortPermutationsAgree(t *testing.T) {
	kernels := []struct {
		name string
		sort func(*fj.Ctx, fj.I64)
	}{
		{"spms", spms.FJSort},
		{"sortx", sortx.FJSort},
	}
	fills := []struct {
		name string
		fill func(v fj.I64, n int64)
	}{
		{"allequal", func(v fj.I64, n int64) {
			for i := int64(0); i < n; i++ {
				v.Store(i, 7)
			}
		}},
		{"binary", func(v fj.I64, n int64) {
			s := uint64(99)
			for i := int64(0); i < n; i++ {
				s = s*6364136223846793005 + 1442695040888963407
				v.Store(i, int64(s>>33)%2)
			}
		}},
		{"fewkeys", func(v fj.I64, n int64) {
			for i := int64(0); i < n; i++ {
				v.Store(i, (i*2654435761)%7)
			}
		}},
		{"runs", func(v fj.I64, n int64) {
			// Long stretches of equal keys in descending blocks.
			for i := int64(0); i < n; i++ {
				v.Store(i, (n-i)/64)
			}
		}},
	}
	// Above both kernels' real sort grain (2048) so the real lowerings fork,
	// matching the eqSizes discipline.
	const nReal = 1 << 12
	const nSim = 1 << 10
	for _, fl := range fills {
		fl := fl
		t.Run(fl.name, func(t *testing.T) {
			// Real backend, both layouts, serial and parallel pools.
			for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
				for _, p := range []int{1, 4} {
					var outs [][]int64
					for _, k := range kernels {
						env := fj.NewRealEnv()
						data := env.I64(nReal)
						fl.fill(data, nReal)
						pool := rt.NewPoolLayout(p, layout)
						t.Cleanup(pool.Close)
						fj.RunReal(pool, func(c *fj.Ctx) { k.sort(c, data) })
						outs = append(outs, data.Words())
					}
					if !wordsEqual(outs[0], outs[1]) {
						t.Errorf("real %s p=%d: spms and sortx outputs differ at n=%d", layout, p, nReal)
					}
				}
			}
			// Sim backend.
			var outs [][]int64
			for _, k := range kernels {
				m := machine.New(machine.Default(4))
				env := fj.NewSimEnv(m)
				data := env.I64(nSim)
				fl.fill(data, nSim)
				fj.RunSim(m, sched.NewPWS(), core.Options{}, nSim, k.name, func(c *fj.Ctx) { k.sort(c, data) })
				outs = append(outs, data.Words())
			}
			if !wordsEqual(outs[0], outs[1]) {
				t.Errorf("sim: spms and sortx outputs differ at n=%d", nSim)
			}
		})
	}
}
