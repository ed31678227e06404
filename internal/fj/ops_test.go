package fj

import (
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

// opGrain is the block length of the op contract's programs, so n =
// opGrain+1 takes two blocks.
const opGrain = 16

// blocks runs leaf over the opGrain-element blocks of [0, n) in a parallel
// loop: the blocks are fixed, wherever hardware splits the loop, so a
// program's output does not depend on the schedule.
func blocks(c *Ctx, n int64, leaf func(c *Ctx, lo, hi int64)) {
	c.ForRange(0, (n+opGrain-1)/opGrain, 1, func(c *Ctx, blo, bhi int64) {
		for b := blo; b < bhi; b++ {
			leaf(c, b*opGrain, min((b+1)*opGrain, n))
		}
	})
}

// opCase is one bulk op and the charged loop it replaces.  build places the
// input words in env and returns a program that runs the op (ref false) or
// the loop (ref true) on every block of the input, and the output's words.
type opCase struct {
	name  string
	build func(env *Env, w []int64, ref bool) (func(*Ctx), func() []int64)
}

// copyCase is Copy at element type T against "read src[i], write dst[i]".
func copyCase[T Elem](name string) opCase {
	return opCase{name, func(env *Env, w []int64, ref bool) (func(*Ctx), func() []int64) {
		in := ViewOf[T](env, w)
		out := NewView[T](env, in.Len())
		return func(c *Ctx) {
			blocks(c, in.Len(), func(c *Ctx, lo, hi int64) {
				if !ref {
					Copy(c, out.Slice(lo, hi), in.Slice(lo, hi))
					return
				}
				for i := lo; i < hi; i++ {
					out.Set(c, i, in.Get(c, i))
				}
			})
		}, out.Words
	}}
}

// opCases are the contract's ops: Copy at each element type, Sum (each
// block stores its sum at its first slot) and Prefix (each block with an
// offset of its own).
func opCases() []opCase {
	return []opCase{
		copyCase[int64]("Copy/int64"),
		copyCase[float64]("Copy/float64"),
		copyCase[complex128]("Copy/complex128"),
		{"Sum", func(env *Env, w []int64, ref bool) (func(*Ctx), func() []int64) {
			in := ViewOf[int64](env, w)
			out := env.I64(in.Len())
			return func(c *Ctx) {
				blocks(c, in.Len(), func(c *Ctx, lo, hi int64) {
					if !ref {
						out.Set(c, lo, Sum(c, in.Slice(lo, hi)))
						return
					}
					var s int64
					for i := lo; i < hi; i++ {
						s += in.Get(c, i)
					}
					out.Set(c, lo, s)
				})
			}, out.Words
		}},
		{"Prefix", func(env *Env, w []int64, ref bool) (func(*Ctx), func() []int64) {
			in := ViewOf[int64](env, w)
			out := env.I64(in.Len())
			return func(c *Ctx) {
				blocks(c, in.Len(), func(c *Ctx, lo, hi int64) {
					if !ref {
						Prefix(c, in.Slice(lo, hi), out.Slice(lo, hi), 3*lo-1)
						return
					}
					s := 3*lo - 1
					for i := lo; i < hi; i++ {
						s += in.Get(c, i)
						out.Set(c, i, s)
					}
				})
			}, out.Words
		}},
	}
}

// opWords is the input of an n-element case: two words an element, so
// that every case can take it (a Copy/complex128 input, or the first half
// of it), with bits that wrap when added.
func opWords(n int64) []int64 {
	w := make([]int64, 2*n)
	for i := range w {
		w[i] = int64(i+1) * -0x61c8864680b583eb
	}
	return w
}

// opSimRun records a case's program on a p-core machine and hashes the
// recording's task tree and every task's accesses, in order, and then the
// core.Result and TaskStart/TaskEnd stream of its replay under the
// scheduler; it returns the hash and the output words.
func opSimRun(oc opCase, w []int64, ref bool, p int, rws bool) (string, []int64) {
	var s core.Scheduler = sched.NewPWS()
	if rws {
		s = sched.NewRWS(7)
	}
	m := machine.New(machine.Default(p))
	root, out := oc.build(NewSimEnv(m), w, ref)
	tape := record(m, int64(len(w)), oc.name, root)
	h := sha256.New()
	tape.Walk(streamHash{h})
	eng := core.NewEngine(m, s, core.Options{})
	eng.Hooks = &core.Hooks{
		TaskStart: func(id, parent int64, prio int, size int64, proc int, now int64, stolen bool) {
			fmt.Fprintln(h, "start", id, parent, prio, size, proc, now, stolen)
		},
		TaskEnd: func(id int64, proc int, now int64) {
			fmt.Fprintln(h, "end", id, proc, now)
		},
	}
	fmt.Fprintf(h, "%#v\n", eng.Replay(tape))
	return fmt.Sprintf("%x", h.Sum(nil)), out()
}

// streamHash writes what a tape walk visits to a hash.
type streamHash struct{ w io.Writer }

func (v streamHash) Task(t core.WalkTask) { fmt.Fprintf(v.w, "task %#v\n", t) }
func (v streamHash) Access(id int, w core.Word, write bool) {
	fmt.Fprintln(v.w, "access", id, w.Kind, w.K, w.Off, write)
}
func (v streamHash) Op(id int, n int64) { fmt.Fprintln(v.w, "op", id, n) }

// TestOpsMatchTheirLoops is the bulk ops' contract, for n ∈ {0, 1, 7,
// opGrain+1}: under the simulator an op charges exactly what the Get/Set
// loop it replaces charges (the same accesses in the same order, and an
// identical core.Result and TaskStart/TaskEnd stream at p = 1 and 4, under
// PWS and RWS) and computes the same words,
// and on hardware it writes the words the simulator's run wrote.
func TestOpsMatchTheirLoops(t *testing.T) {
	pool := rt.NewPool(2, rt.Random)
	t.Cleanup(pool.Close)
	for _, oc := range opCases() {
		for _, n := range []int64{0, 1, 7, opGrain + 1} {
			w := opWords(n)
			if oc.name != "Copy/complex128" {
				w = w[:n]
			}
			var simOut []int64
			for _, p := range []int{1, 4} {
				for _, rws := range []bool{false, true} {
					opSum, opOut := opSimRun(oc, w, false, p, rws)
					refSum, refOut := opSimRun(oc, w, true, p, rws)
					if opSum != refSum {
						t.Errorf("%s n=%d p=%d rws=%v: the op's run differs from its loop's", oc.name, n, p, rws)
					}
					if !slices.Equal(opOut, refOut) {
						t.Errorf("%s n=%d p=%d rws=%v: the op writes %v, its loop %v", oc.name, n, p, rws, opOut, refOut)
					}
					simOut = opOut
				}
			}
			root, out := oc.build(NewRealEnv(), slices.Clone(w), false)
			RunReal(pool, root)
			if got := out(); !slices.Equal(got, simOut) {
				t.Errorf("%s n=%d: hardware writes %v, the simulator %v", oc.name, n, got, simOut)
			}
		}
	}
}

// TestOpsRefuseMismatchedLengths: an op whose views differ in length
// panics on both backends, where a native copy would silently truncate.
func TestOpsRefuseMismatchedLengths(t *testing.T) {
	pool := rt.NewPool(1, rt.Random)
	t.Cleanup(pool.Close)
	progs := func(env *Env) map[string]func(*Ctx) {
		a, b := env.I64(5), env.I64(4)
		x, y := env.C128(3), env.C128(4)
		return map[string]func(*Ctx){
			"Copy/int64":      func(c *Ctx) { Copy(c, a, b) },
			"Copy/complex128": func(c *Ctx) { Copy(c, x, y) },
			"Prefix":          func(c *Ctx) { Prefix(c, b, a, 0) },
		}
	}
	for name, prog := range progs(NewRealEnv()) {
		if raised(func() { RunReal(pool, prog) }) == nil {
			t.Errorf("hardware: %s of views of different lengths did not panic", name)
		}
	}
	m := machine.New(machine.Default(2))
	for name, prog := range progs(NewSimEnv(m)) {
		if raised(func() { RunSim(m, sched.NewPWS(), core.Options{}, 8, name, prog) }) == nil {
			t.Errorf("simulator: %s of views of different lengths did not panic", name)
		}
	}
}
