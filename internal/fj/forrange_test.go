package fj

import (
	"fmt"
	"math/bits"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

// forRangeCases are (lo, hi, grain) triples around every boundary of the
// sim split: empty, one index, exactly one leaf, one over, uneven halves —
// and one range long enough for the real lowering's chunks to grow and its
// right halves to be stolen while they do.
func forRangeCases() [][3]int64 {
	const g = 8
	return [][3]int64{
		{5, 5, g}, {5, 6, g}, {5, 5 + g, g}, {5, 5 + g + 1, g},
		{0, 100, g}, {3, 259, 1}, {0, 64, 0}, {7, 200, 13}, {9, 4, g},
		{0, 1 << 16, g},
	}
}

// forRef is the per-index parallel loop fj offered before ForRange became
// its only one, kept as the reference ForRange is held to: binary splitting
// of [lo, hi) down to grain, then body(c, i) for each index of a leaf in
// ascending order on one task.
func forRef(c *Ctx, lo, hi, grain int64, body func(c *Ctx, i int64)) {
	if grain < 1 {
		grain = 1
	}
	if hi-lo <= grain {
		for i := lo; i < hi; i++ {
			body(c, i)
		}
		return
	}
	mid := lo + (hi-lo)/2
	c.Parallel(
		func(c *Ctx) { forRef(c, lo, mid, grain, body) },
		func(c *Ctx) { forRef(c, mid, hi, grain, body) },
	)
}

// TestForRangeMatchesFor holds ForRange to forRef, the per-index loop the
// kernels were written with.  On the simulator the same map written both
// ways — forRef's per-index body, and ForRange's range body looping over it
// — must be indistinguishable: equal engine statistics and equal words.  On
// rt every index of the range is visited exactly once and nothing outside
// it, by ForRange's chunks (real) and by forRef's leaves, a Parallel fork
// per split (realFor); the plain increments are disjoint across tasks, so
// a double visit is also a -race report.
func TestForRangeMatchesFor(t *testing.T) {
	for _, tc := range forRangeCases() {
		lo, hi, grain := tc[0], tc[1], tc[2]
		n := max(300, hi)
		t.Run(fmt.Sprintf("sim/%d-%d/g%d", lo, hi, grain), func(t *testing.T) {
			run := func(ranged bool) (core.Result, []int64) {
				m := machine.New(machine.Default(4))
				env := NewSimEnv(m)
				in, out := env.I64(n), env.I64(n)
				fillSeq(in)
				elem := func(c *Ctx, i int64) { out.Set(c, i, 3*in.Get(c, i)+1) }
				res := RunSim(m, sched.NewPWS(), core.Options{}, n, "map", func(c *Ctx) {
					if !ranged {
						forRef(c, lo, hi, grain, elem)
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
				t.Errorf("engine statistics differ:\nForRange %+v\nforRef   %+v", gotRes, wantRes)
			}
			if !reflect.DeepEqual(gotWords, wantWords) {
				t.Error("output words differ")
			}
		})
		for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
			for _, p := range []int{1, 2, 4} {
				for _, ranged := range []bool{false, true} {
					arm := "realFor"
					if ranged {
						arm = "real"
					}
					t.Run(fmt.Sprintf("%s/%d-%d/g%d/%v/p%d", arm, lo, hi, grain, layout, p), func(t *testing.T) {
						visits := make([]int32, n)
						pool := rt.NewPoolLayout(p, layout)
						defer pool.Close()
						RunReal(pool, func(c *Ctx) {
							if !ranged {
								forRef(c, lo, hi, grain, func(_ *Ctx, i int64) { visits[i]++ })
								return
							}
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
}

// TestForRangeForksLogN pins the real lowering's lazy splitting on one
// worker, where it is deterministic: nobody steals, so a range forks its
// right half only when it starts on an empty deque — once at the root and
// once in each right half the worker later pops back at its join.  A range of
// n = 2¹⁶ indices therefore forks about log₂ n tasks, where splitting down
// to a fixed grain of 1 would fork n−1.  Each of those log₂ n ranges runs
// in O(log n) chunks (the chunk doubles, capped at a quarter of what
// remains), so the body runs O(log² n) times, not once per index.
func TestForRangeForksLogN(t *testing.T) {
	const n = 1 << 16
	lg := int64(bits.Len64(n) - 1)
	pool := rt.NewPool(1, rt.Random)
	defer pool.Close()
	var calls, covered int64
	RunReal(pool, func(c *Ctx) {
		c.ForRange(0, n, 1, func(_ *Ctx, lo, hi int64) {
			calls++
			covered += hi - lo
		})
	})
	forks := pool.Executed() - 1 // the root is a task too
	if covered != n {
		t.Fatalf("chunks cover %d indices, want %d", covered, n)
	}
	if forks < 1 || forks > 2*lg {
		t.Errorf("forked %d tasks over %d indices on one worker, want 1..%d (2·log₂ n)", forks, n, 2*lg)
	}
	if calls > 2*lg*lg {
		t.Errorf("body called %d times over %d indices on one worker, want at most %d (2·log₂² n)", calls, n, 2*lg*lg)
	}
	t.Logf("n=%d: %d forks, %d body calls", n, forks, calls)
}

// TestForRangeForksPerSteal bounds the lazy splitting on several workers,
// where split points follow the schedule.  A range forks only while its
// worker's deque is empty, which the root and each steal bring about (a
// thief starts on an empty deque, and its victim may be left with one), and
// each such start forks along one halving chain of at most log₂ n ranges.
// So with S steals, forks stay within 2·(S+1)·⌈log₂ n⌉.
func TestForRangeForksPerSteal(t *testing.T) {
	for _, p := range []int{2, 4} {
		for _, lg := range []int64{10, 16, 20} {
			n := int64(1) << lg
			t.Run(fmt.Sprintf("p%d/n=2^%d", p, lg), func(t *testing.T) {
				pool := rt.NewPool(p, rt.Random)
				defer pool.Close()
				var covered atomic.Int64
				RunReal(pool, func(c *Ctx) {
					c.ForRange(0, n, 1, func(_ *Ctx, lo, hi int64) { covered.Add(hi - lo) })
				})
				forks, steals := pool.Executed()-1, pool.Steals() // the root is a task too
				if covered.Load() != n {
					t.Fatalf("chunks cover %d indices, want %d", covered.Load(), n)
				}
				if bound := 2 * (steals + 1) * lg; forks > bound {
					t.Errorf("forked %d tasks with %d steals over %d indices, want at most %d (2·(S+1)·log₂ n)",
						forks, steals, n, bound)
				}
				t.Logf("%d forks, %d steals", forks, steals)
			})
		}
	}
}
