package fj

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

// sumProgram is a small fork-join program touching every frontend feature:
// nested Parallel, a parallel ForRange, mid-run allocation, and per-backend
// grains.
func sumProgram(in, out I64) func(*Ctx) {
	n := in.Len()
	return func(c *Ctx) {
		tmp := c.AllocI64(n)
		c.ForRange(0, n, c.Grain(4, 64), func(c *Ctx, lo, hi int64) {
			for i := lo; i < hi; i++ {
				tmp.Set(c, i, 2*in.Get(c, i))
			}
		})
		var a, b int64
		c.Parallel(
			func(c *Ctx) { a = sumRange(c, tmp, 0, n/2) },
			func(c *Ctx) { b = sumRange(c, tmp, n/2, n) },
		)
		out.Set(c, 0, a+b)
	}
}

func sumRange(c *Ctx, v I64, lo, hi int64) int64 {
	if hi-lo <= c.Grain(4, 64) {
		var s int64
		for i := lo; i < hi; i++ {
			s += v.Get(c, i)
		}
		return s
	}
	mid := lo + (hi-lo)/2
	var l, r int64
	c.Parallel(
		func(c *Ctx) { l = sumRange(c, v, lo, mid) },
		func(c *Ctx) { r = sumRange(c, v, mid, hi) },
	)
	return l + r
}

func fillSeq(v I64) int64 {
	var want int64
	for i := int64(0); i < v.Len(); i++ {
		v.Store(i, i+1)
		want += 2 * (i + 1)
	}
	return want
}

func TestSumSimBackend(t *testing.T) {
	for _, schedName := range []string{"pws", "rws"} {
		var s core.Scheduler = sched.NewPWS()
		if schedName == "rws" {
			s = sched.NewRWS(12345)
		}
		m := machine.New(machine.Default(4))
		env := NewSimEnv(m)
		in, out := env.I64(256), env.I64(1)
		want := fillSeq(in)
		res := RunSim(m, s, core.Options{}, 256, "sum", sumProgram(in, out))
		if got := out.Load(0); got != want {
			t.Errorf("%s: sum = %d, want %d", schedName, got, want)
		}
		if res.Work == 0 || res.Total.ColdMisses == 0 {
			t.Errorf("%s: expected charged work and cache traffic, got work=%d cold=%d",
				schedName, res.Work, res.Total.ColdMisses)
		}
	}
}

func TestSumRealBackend(t *testing.T) {
	for _, layout := range []rt.Layout{rt.LayoutPadded, rt.LayoutCompact} {
		env := NewRealEnv()
		in, out := env.I64(256), env.I64(1)
		want := fillSeq(in)
		pool := rt.NewPoolLayout(4, layout)
		t.Cleanup(pool.Close)
		RunReal(pool, sumProgram(in, out))
		if got := out.Load(0); got != want {
			t.Errorf("%s: sum = %d, want %d", layout, got, want)
		}
	}
}

// TestForksAllocateNothing: once the worker's rt task frames are warm, a
// Parallel and a ForRange at p = 1 allocate nothing.  Each fork is one
// pooled rt frame carrying the body and its range; fj keeps no record of
// its own and hands every task the worker's one Ctx.  MemStats counts the
// whole process, so anything else running in it during a batch shows up in
// that batch: objects and bytes are each the least of three batches, as in
// TestKernelAllocRegression, and must still be exactly 0.
func TestForksAllocateNothing(t *testing.T) {
	if arena.Poisoning {
		t.Skip("allocation pins are for the non-instrumented build")
	}
	const reps = 200
	leaf := func(*Ctx) {}
	body := func(*Ctx, int64, int64) {}
	for _, tc := range []struct {
		name string
		run  func(c *Ctx)
	}{
		{"Parallel", func(c *Ctx) { c.Parallel(leaf, leaf) }},
		{"ForRange", func(c *Ctx) { c.ForRange(0, 1<<12, 1, body) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := rt.NewPool(1, rt.Random)
			t.Cleanup(pool.Close)
			const batches = 3
			objs, bytes := ^uint64(0), ^uint64(0)
			RunReal(pool, func(c *Ctx) {
				tc.run(c)
				for range batches {
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					for i := 0; i < reps; i++ {
						tc.run(c)
					}
					runtime.ReadMemStats(&m1)
					objs = min(objs, m1.Mallocs-m0.Mallocs)
					bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
				}
			})
			if forks := pool.Executed() - 1; forks < batches*reps {
				t.Fatalf("%d runs of %s forked %d tasks, want at least one each", batches*reps+1, tc.name, forks)
			}
			if objs != 0 || bytes != 0 {
				t.Fatalf("%d warm runs of %s allocated %d objects, %d bytes at least; want 0 and 0", reps, tc.name, objs, bytes)
			}
		})
	}
}

// TestSimDeterministic re-runs the same program and requires identical
// engine metrics: the sim lowering must not perturb the engine's
// deterministic schedule.
func TestSimDeterministic(t *testing.T) {
	run := func() core.Result {
		m := machine.New(machine.Default(4))
		env := NewSimEnv(m)
		in, out := env.I64(128), env.I64(1)
		fillSeq(in)
		return RunSim(m, sched.NewPWS(), core.Options{}, 128, "sum", sumProgram(in, out))
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Work != b.Work || a.Steals != b.Steals ||
		a.Total.ColdMisses != b.Total.ColdMisses || a.Total.BlockMisses != b.Total.BlockMisses {
		t.Errorf("non-deterministic sim lowering:\n%+v\n%+v", a, b)
	}
}

// TestSimStealsHappen forces a wide computation and checks the engine
// actually distributes fj tasks across simulated cores.
func TestSimStealsHappen(t *testing.T) {
	m := machine.New(machine.Default(8))
	env := NewSimEnv(m)
	in, out := env.I64(1024), env.I64(1)
	fillSeq(in)
	res := RunSim(m, sched.NewPWS(), core.Options{}, 1024, "sum", sumProgram(in, out))
	if res.Steals == 0 {
		t.Error("expected steals in an 8-core run of a wide computation")
	}
}

// TestStaggeredJoinsRunConcurrently pins the lowering semantics for the
// staggered shape Parallel(func { Parallel(nop, f1); g() }, f0): the code
// g() between the inner join and the outer one must run concurrently with
// the still-open outer fork f0 — as it does on the real backend — not be
// deferred until f0 completes.  With f0 and g() each charging `heavy` ops,
// a concurrent schedule has critical path ≈ heavy + ε while a serialized
// one has ≈ 2·heavy; the test asserts the former.
func TestStaggeredJoinsRunConcurrently(t *testing.T) {
	const heavy = 20000
	m := machine.New(machine.Default(4))
	var f0done, gdone bool
	res := RunSim(m, sched.NewPWS(), core.Options{}, 1, "staggered", func(c *Ctx) {
		c.Parallel(func(c *Ctx) {
			c.Parallel(func(*Ctx) {}, func(c *Ctx) { c.Op(1) })
			c.Op(heavy)
			gdone = true
		}, func(c *Ctx) { c.Op(heavy); f0done = true })
	})
	if !f0done || !gdone {
		t.Fatal("tasks did not complete")
	}
	if res.CritPath >= 2*heavy {
		t.Errorf("critical path %d ≥ %d: g() was serialized after the outer fork", res.CritPath, 2*heavy)
	}
}

// TestStaggeredJoinsReal runs the same shape on the real backend for the
// correctness half (concurrency there is rt's native behaviour).
func TestStaggeredJoinsReal(t *testing.T) {
	env := NewRealEnv()
	out := env.I64(3)
	pool := rt.NewPool(4, rt.Random)
	t.Cleanup(pool.Close)
	RunReal(pool, func(c *Ctx) {
		c.Parallel(func(c *Ctx) {
			c.Parallel(func(*Ctx) {}, func(c *Ctx) { out.Set(c, 1, 2) })
			out.Set(c, 2, 3)
		}, func(c *Ctx) { out.Set(c, 0, 1) })
	})
	for i, want := range []int64{1, 2, 3} {
		if out.Load(int64(i)) != want {
			t.Errorf("out[%d] = %d, want %d", i, out.Load(int64(i)), want)
		}
	}
}

// panicPrograms are two programs whose one panic, "boom", leaves a forked
// task: the forked half of a Parallel, and the chunk that starts the right
// half of a ForRange (a fork, since a deque starts empty).  With steal the
// inline side waits for the panicking task to start, so on a pool of two it
// is a thief's.  panics counts the panics raised.
func panicPrograms(steal bool, panics *atomic.Int32) map[string]func(*Ctx) {
	boom := func(started *atomic.Bool) {
		started.Store(true)
		panics.Add(1)
		panic("boom")
	}
	wait := func(started *atomic.Bool) {
		for steal && !started.Load() {
			runtime.Gosched()
		}
	}
	return map[string]func(*Ctx){
		"Parallel": func(c *Ctx) {
			var started atomic.Bool
			c.Parallel(func(*Ctx) { wait(&started) }, func(*Ctx) { boom(&started) })
		},
		"ForRange": func(c *Ctx) {
			const n = 64
			var started atomic.Bool
			c.ForRange(0, n, 1, func(_ *Ctx, lo, hi int64) {
				switch lo {
				case n / 2:
					boom(&started)
				case 0:
					wait(&started)
				}
			})
		},
	}
}

// TestUserPanicPropagates: both lowerings raise a forked task's panic in
// the caller of the run, once.  On rt at p = 2 the panicking task is
// stolen; the pool then runs a clean program and closes without leaving a
// goroutine.
func TestUserPanicPropagates(t *testing.T) {
	var panics atomic.Int32
	for name, prog := range panicPrograms(false, &panics) {
		panics.Store(0)
		m := machine.New(machine.Default(2))
		if r := raised(func() { RunSim(m, sched.NewPWS(), core.Options{}, 1, "bad", prog) }); r != "boom" || panics.Load() != 1 {
			t.Errorf("sim %s: raised %v after %d panics, want boom after 1", name, r, panics.Load())
		}
	}
	before := runtime.NumGoroutine()
	for _, p := range []int{1, 2} {
		pool := rt.NewPool(p, rt.Random)
		for name, prog := range panicPrograms(p > 1, &panics) {
			panics.Store(0)
			steals := pool.Steals()
			if r := raised(func() { RunReal(pool, prog) }); r != "boom" || panics.Load() != 1 {
				t.Errorf("p=%d %s: raised %v after %d panics, want boom after 1", p, name, r, panics.Load())
			}
			if p > 1 && pool.Steals() == steals {
				t.Errorf("p=%d %s: the panicking task was not stolen", p, name)
			}
		}
		env := NewRealEnv()
		in, out := env.I64(256), env.I64(1)
		want := fillSeq(in)
		RunReal(pool, sumProgram(in, out))
		if got := out.Load(0); got != want {
			t.Errorf("p=%d: after the panics, sum = %d, want %d", p, got, want)
		}
		pool.Close()
	}
	awaitGoroutines(t, before)
}

// TestPanicJoinsForRangeForks: a ForRange chunk's panic joins the range's
// outstanding forks before it leaves, so no index runs once the program
// has returned, and none after RunReal has raised.  At p = 1 the loop over
// [0, 64) forks [32, 64) and runs [0, 32); the forked half forks [48, 64)
// and panics in its first chunk, at 32.  [48, 64) then runs inside the
// unwinding join; a fork left unjoined would run on the one worker after
// the root, where the flag the root's defer sets counts it.
func TestPanicJoinsForRangeForks(t *testing.T) {
	pool := rt.NewPool(1, rt.Random)
	defer pool.Close()
	var ran, late atomic.Int64
	var returned atomic.Bool
	r := raised(func() {
		RunReal(pool, func(c *Ctx) {
			defer returned.Store(true)
			c.ForRange(0, 64, 1, func(_ *Ctx, lo, hi int64) {
				if lo == 32 {
					panic("boom")
				}
				ran.Add(hi - lo)
				if returned.Load() {
					late.Add(hi - lo)
				}
			})
		})
	})
	RunReal(pool, func(*Ctx) {}) // the one worker runs what its deque holds first
	if r != "boom" || late.Load() != 0 || ran.Load() != 48 {
		t.Errorf("raised %v; %d indices ran, %d after the program returned; want boom, 48, 0", r, ran.Load(), late.Load())
	}
}

// TestPanicJoinsStolenHalf: when the inline half of a Parallel panics while
// a thief runs the forked half, RunReal returns only after that half has
// finished, and raises the inline half's panic, not the forked half's.
func TestPanicJoinsStolenHalf(t *testing.T) {
	pool := rt.NewPool(2, rt.Random)
	defer pool.Close()
	var started, finished atomic.Bool
	steals := pool.Steals()
	r := raised(func() {
		RunReal(pool, func(c *Ctx) {
			c.Parallel(func(*Ctx) {
				for deadline := time.Now().Add(10 * time.Second); !started.Load(); runtime.Gosched() {
					if time.Now().After(deadline) {
						panic("no thief took the forked half")
					}
				}
				panic("boom")
			}, func(*Ctx) {
				started.Store(true)
				time.Sleep(5 * time.Millisecond)
				finished.Store(true)
				panic("sibling")
			})
		})
	})
	if r != "boom" || !finished.Load() {
		t.Errorf("raised %v, forked half finished = %v; want boom after it finished", r, finished.Load())
	}
	if pool.Steals() == steals {
		t.Error("the forked half was not stolen")
	}
}

// raised runs f and returns what it panicked with, nil if it returned.
func raised(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestPanicTearsDownCoroutines: a panicking run raises its task's panic and
// leaves no goroutine behind — the sim lowering starts none.  The panic
// leaves a task with a forked sibling done and the root waiting to join it.
func TestPanicTearsDownCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		m := machine.New(machine.Default(4))
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want boom", r)
				}
			}()
			RunSim(m, sched.NewPWS(), core.Options{}, 8, "panicky", func(c *Ctx) {
				c.Parallel(func(c *Ctx) {
					c.Parallel(func(*Ctx) {}, func(*Ctx) { panic("boom") })
				}, func(c *Ctx) {
					c.Parallel(func(*Ctx) {}, func(*Ctx) {})
				})
			})
		}()
	}
	awaitGoroutines(t, before)
}

// awaitGoroutines polls until the goroutine count is back near the
// baseline, for goroutines that end asynchronously.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTornDownTaskEndsDespiteRecover: the first panic of a task is the
// run's, even when its parent recovers it.  The parent's next fork raises
// it again, and so does each later one; the parent's deferred calls run,
// one that panics on the way out does not replace the run's panic, and the
// run raises "boom".
func TestTornDownTaskEndsDespiteRecover(t *testing.T) {
	var swallowed, ranOn, deferred int
	stubborn := func(c *Ctx) {
		c.Parallel(func(*Ctx) {}, func(c *Ctx) {
			defer func() { deferred++; panic("raised by a deferred call during teardown") }()
			for i := 0; i < 3; i++ {
				func() {
					defer func() {
						if recover() != nil {
							swallowed++
						}
					}()
					c.Parallel(func(*Ctx) {}, func(*Ctx) { panic("boom") })
				}()
			}
			ranOn++ // reached only because every panic was swallowed
		})
	}
	m := machine.New(machine.Default(1))
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		RunSim(m, sched.NewPWS(), core.Options{}, 8, "stubborn", stubborn)
	}()
	if swallowed != 3 || ranOn != 1 || deferred != 1 {
		t.Errorf("swallowed %d panics, ran on %d times, %d deferred calls; want 3, 1, 1", swallowed, ranOn, deferred)
	}
}

// TestRecoveredPanicStillRaised: a parent that recovers its child's panic
// and returns normally does not save the run, which raises the panic.
func TestRecoveredPanicStillRaised(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	RunSim(machine.New(machine.Default(2)), sched.NewPWS(), core.Options{}, 1, "recovered", func(c *Ctx) {
		defer func() { recover() }()
		c.Parallel(func(*Ctx) {}, func(*Ctx) { panic("boom") })
	})
}

// TestGrainSelectsBackend pins the per-backend cutoff hook.
func TestGrainSelectsBackend(t *testing.T) {
	env := NewRealEnv()
	got := int64(0)
	pool := rt.NewPool(1, rt.Random)
	t.Cleanup(pool.Close)
	RunReal(pool, func(c *Ctx) { got = c.Grain(2, 64) })
	if got != 64 {
		t.Errorf("real grain = %d, want 64", got)
	}
	_ = env
	m := machine.New(machine.Default(1))
	RunSim(m, sched.NewPWS(), core.Options{}, 1, "g", func(c *Ctx) { got = c.Grain(2, 64) })
	if got != 2 {
		t.Errorf("sim grain = %d, want 2", got)
	}
}

// TestViewWordsAgree checks the canonical word dump is backend-independent
// for identical contents, across all three element types.
func TestViewWordsAgree(t *testing.T) {
	me := machine.New(machine.Default(1))
	se, re := NewSimEnv(me), NewRealEnv()
	si, ri := se.I64(4), re.I64(4)
	sf, rf := se.F64(4), re.F64(4)
	sc, rc := se.C128(4), re.C128(4)
	for i := int64(0); i < 4; i++ {
		si.Store(i, i*3)
		ri.Store(i, i*3)
		sf.Store(i, float64(i)/3)
		rf.Store(i, float64(i)/3)
		sc.Store(i, complex(float64(i)/7, -float64(i)/3))
		rc.Store(i, complex(float64(i)/7, -float64(i)/3))
	}
	for _, pair := range [][2][]int64{
		{si.Words(), ri.Words()},
		{sf.Words(), rf.Words()},
		{sc.Words(), rc.Words()},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("word count mismatch: %d vs %d", len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Errorf("word %d: sim %d != real %d", i, pair[0][i], pair[1][i])
			}
		}
	}
}

// sliceBounds checks, for one element type, that Slice accepts and rejects
// the same ranges on both backends — and, for the ranges it accepts, that the
// sub-view is that window of its parent.  A real view is checked twice: as an
// Env allocation, and as an arena slab, whose spare capacity a plain slice
// expression would silently reach into.
func sliceBounds[T Elem](t *testing.T, one T) {
	t.Helper()
	const n = 8
	panics := func(v View[T], lo, hi int64) (p bool) {
		defer func() { p = recover() != nil }()
		v.Slice(lo, hi)
		return false
	}
	check := func(backend string, v View[T]) {
		for lo := int64(-1); lo <= n+1; lo++ {
			for hi := int64(-1); hi <= n+1; hi++ {
				want := lo < 0 || hi < lo || hi > n
				if got := panics(v, lo, hi); got != want {
					t.Errorf("%s %T: Slice(%d, %d) of %d elements: panicked = %v, want %v", backend, one, lo, hi, n, got, want)
				}
				if want {
					continue
				}
				sub := v.Slice(lo, hi)
				if sub.Len() != hi-lo {
					t.Errorf("%s %T: Slice(%d, %d).Len() = %d", backend, one, lo, hi, sub.Len())
				}
				if lo < hi {
					sub.Store(0, one)
					if v.Load(lo) != one {
						t.Errorf("%s %T: Slice(%d, %d) does not alias its parent", backend, one, lo, hi)
					}
					var zero T
					sub.Store(0, zero)
				}
			}
		}
	}
	check("sim", NewView[T](NewSimEnv(machine.New(machine.Default(1))), n))
	check("real", NewView[T](NewRealEnv(), n))
	pool := rt.NewPool(1, rt.Random)
	t.Cleanup(pool.Close)
	RunReal(pool, func(c *Ctx) {
		v := scratch[T](c, n)
		check("arena", v)
		free(c, v)
	})
}

func TestSliceBoundsAgreeAcrossBackends(t *testing.T) {
	sliceBounds(t, int64(7))
	sliceBounds(t, 2.5)
	sliceBounds(t, complex(1.5, -2))
}
