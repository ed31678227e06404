package fj

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

// forRangeCases are (lo, hi, grain) triples around every boundary of the
// split: empty, one index, exactly one leaf, one over, uneven halves.
func forRangeCases() [][3]int64 {
	const g = 8
	return [][3]int64{
		{5, 5, g}, {5, 6, g}, {5, 5 + g, g}, {5, 5 + g + 1, g},
		{0, 100, g}, {3, 259, 1}, {0, 64, 0}, {7, 200, 13}, {9, 4, g},
	}
}

// TestForRangeMatchesFor holds ForRange to For.  On the simulator the same
// map written both ways — For's per-index body, and ForRange's range body
// looping over it — must be indistinguishable: equal engine statistics and
// equal words.  On rt every index of the range is visited exactly once and
// nothing outside it (the plain increments are disjoint across leaves, so a
// double visit is also a -race report).
func TestForRangeMatchesFor(t *testing.T) {
	const n = 300
	for _, tc := range forRangeCases() {
		lo, hi, grain := tc[0], tc[1], tc[2]
		t.Run(fmt.Sprintf("sim/%d-%d/g%d", lo, hi, grain), func(t *testing.T) {
			run := func(ranged bool) (core.Result, []int64) {
				m := machine.New(machine.Default(4))
				env := NewSimEnv(m)
				in, out := env.I64(n), env.I64(n)
				fillSeq(in)
				elem := func(c *Ctx, i int64) { out.Set(c, i, 3*in.Get(c, i)+1) }
				res := RunSim(m, sched.NewPWS(), core.Options{}, n, "map", func(c *Ctx) {
					if !ranged {
						c.For(lo, hi, grain, elem)
						return
					}
					c.ForRange(lo, hi, grain, func(c *Ctx, lo, hi int64) {
						for i := lo; i < hi; i++ {
							elem(c, i)
						}
					})
				})
				return res, out.Words()
			}
			wantRes, wantWords := run(false)
			gotRes, gotWords := run(true)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("engine statistics differ:\nForRange %+v\nFor      %+v", gotRes, wantRes)
			}
			if !reflect.DeepEqual(gotWords, wantWords) {
				t.Error("output words differ")
			}
		})
		for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
			for _, p := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("real/%d-%d/g%d/%v/p%d", lo, hi, grain, layout, p), func(t *testing.T) {
					visits := make([]int32, n)
					pool := rt.NewPoolLayout(p, rt.Random, layout)
					defer pool.Close()
					RunReal(pool, func(c *Ctx) {
						c.ForRange(lo, hi, grain, func(_ *Ctx, lo, hi int64) {
							if hi <= lo {
								t.Errorf("leaf called with the empty range [%d, %d)", lo, hi)
							}
							for i := lo; i < hi; i++ {
								visits[i]++
							}
						})
					})
					for i, v := range visits {
						want := int32(0)
						if int64(i) >= lo && int64(i) < hi {
							want = 1
						}
						if v != want {
							t.Fatalf("index %d visited %d times, want %d", i, v, want)
						}
					}
				})
			}
		}
	}
}
