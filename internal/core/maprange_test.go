package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// treeMapRange is MapRange as it was before the engine split ranges itself:
// the BP tree built from a Node and a closure per internal node and leaf.
// It is the reference the engine-split range must be indistinguishable from.
func treeMapRange(lo, hi int64, sizePer int64, body func(c *core.Ctx, i int64)) *core.Node {
	n := hi - lo
	if n <= 0 {
		return core.Leaf(1, func(c *core.Ctx) {})
	}
	if n == 1 {
		return core.Leaf(sizePer, func(c *core.Ctx) { body(c, lo) })
	}
	mid := lo + n/2
	return &core.Node{
		Size: n * sizePer,
		Fork: func(c *core.Ctx) (*core.Node, *core.Node) {
			return treeMapRange(lo, mid, sizePer, body), treeMapRange(mid, hi, sizePer, body)
		},
	}
}

type mapRangeFunc func(lo, hi, sizePer int64, body func(c *core.Ctx, i int64)) *core.Node

// rangeRun is everything observable of one run: the result, the task event
// stream and the output array.
type rangeRun struct {
	res    core.Result
	events []string
	out    []int64
}

// runRanges runs, on a small machine, a sequence of two collections: one
// range over [0, n), then two ranges over its halves spread side by side —
// so range nodes appear as the root of a stage and as Spread children.
func runRanges(mapRange mapRangeFunc, n int64, p int, s core.Scheduler, padded bool) rangeRun {
	m := machine.New(machine.Config{P: p, M: 256, B: 8, MissLatency: 4})
	in := mem.NewArray(m.Space, n+1)
	out := mem.NewArray(m.Space, n+1)
	for i := int64(0); i <= n; i++ {
		in.Set(i, 3*i+1)
	}
	double := func(c *core.Ctx, i int64) { c.W(out.Addr(i), 2*c.R(in.Addr(i))) }
	addIndex := func(c *core.Ctx, i int64) {
		c.Op(1)
		c.W(out.Addr(i), c.R(out.Addr(i))+i)
	}
	root := core.Stages(4*n,
		func(c *core.Ctx) *core.Node { return mapRange(0, n, 2, double) },
		func(c *core.Ctx) *core.Node {
			return core.Spread([]*core.Node{
				mapRange(0, n/2, 3, addIndex),
				mapRange(n/2, n, 3, addIndex),
			})
		},
	)
	var run rangeRun
	eng := core.NewEngine(m, s, core.Options{Padded: padded})
	eng.Hooks = &core.Hooks{
		TaskStart: func(id, parent int64, prio int, size int64, proc int, now int64, stolen bool) {
			run.events = append(run.events, fmt.Sprintf("start id=%d parent=%d prio=%d size=%d proc=%d now=%d stolen=%v",
				id, parent, prio, size, proc, now, stolen))
		},
		TaskEnd: func(id int64, proc int, now int64) {
			run.events = append(run.events, fmt.Sprintf("end id=%d proc=%d now=%d", id, proc, now))
		},
	}
	run.res = eng.Run(root)
	run.out = out.CopyOut()
	return run
}

// TestMapRangeMatchesTree checks that the engine-split range is the BP tree
// the closures built: same result, same task events, same output.
func TestMapRangeMatchesTree(t *testing.T) {
	scheds := []struct {
		name string
		mk   func() core.Scheduler
	}{
		{"pws", func() core.Scheduler { return sched.NewPWS() }},
		{"rws", func() core.Scheduler { return sched.NewRWS(12345) }},
	}
	for _, n := range []int64{0, 1, 2, 3, 257, 1024} {
		for _, sc := range scheds {
			for _, p := range []int{1, 2, 8} {
				for _, padded := range []bool{false, true} {
					name := fmt.Sprintf("n=%d/%s/p=%d/padded=%v", n, sc.name, p, padded)
					t.Run(name, func(t *testing.T) {
						want := runRanges(treeMapRange, n, p, sc.mk(), padded)
						got := runRanges(core.MapRange, n, p, sc.mk(), padded)
						if !reflect.DeepEqual(got.res, want.res) {
							t.Errorf("result differs:\n got %s\nwant %s", got.res, want.res)
						}
						if len(got.events) != len(want.events) {
							t.Errorf("%d task events, want %d", len(got.events), len(want.events))
						}
						for i := range min(len(got.events), len(want.events)) {
							if got.events[i] != want.events[i] {
								t.Fatalf("task event %d: got %q, want %q", i, got.events[i], want.events[i])
							}
						}
						if !reflect.DeepEqual(got.out, want.out) {
							t.Errorf("output differs")
						}
					})
				}
			}
		}
	}
}

func TestMapRangeBodyHasNoLocals(t *testing.T) {
	m := machine.New(machine.Config{P: 1, M: 256, B: 8, MissLatency: 4})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "declares 0 locals") {
			t.Errorf("panic %q, want one saying the task declares 0 locals", msg)
		}
	}()
	core.NewEngine(m, sched.NewPWS(), core.Options{}).Run(
		core.MapRange(0, 4, 1, func(c *core.Ctx, i int64) { c.Local(0) }))
}

// TestNodeIs64Bytes pins Node to the 64-byte allocation size class: every
// task a kernel builds allocates one, and one more pointer field pushes it
// to the 80-byte class.
func TestNodeIs64Bytes(t *testing.T) {
	if got := unsafe.Sizeof(core.Node{}); got != 64 {
		t.Errorf("core.Node is %d bytes, want 64", got)
	}
}
