package fj_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/algos/registry"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/sched"
)

// loweringSizes gives each fj kernel the two sizes the lowering-equivalence
// gate runs: one off every power of two where the kernel accepts any size.
var loweringSizes = map[string][2]int64{
	"matmul":    {8, 16},
	"strassen":  {8, 16},
	"fft":       {64, 128},
	"transpose": {17, 32},
	"sortx":     {300, 513},
	"spms":      {300, 517},
	"scan":      {600, 1025},
	"gather":    {300, 517},
	"listrank":  {200, 257},
}

// taskEvent is one TaskStart (end false) or TaskEnd (end true) of a run.
type taskEvent struct {
	end        bool
	id, parent int64
	prio, proc int
	size, now  int64
	stolen     bool
}

// loweredRun is everything observable of one simulated run: the result, the
// task event stream and the output words.
type loweredRun struct {
	res    core.Result
	events []taskEvent
	out    []int64
}

func runLowered(simNode func(int64, string, func(*fj.Ctx)) *core.Node, k registry.FJKernel, n int64, p int, schedName string, padded bool) loweredRun {
	var s core.Scheduler = sched.NewPWS()
	if schedName == "rws" {
		s = sched.NewRWS(12345)
	}
	m := machine.New(machine.Default(p))
	w := k.Setup(fj.NewSimEnv(m), n, 7)
	var run loweredRun
	eng := core.NewEngine(m, s, core.Options{Padded: padded})
	eng.Hooks = &core.Hooks{
		TaskStart: func(id, parent int64, prio int, size int64, proc int, now int64, stolen bool) {
			run.events = append(run.events, taskEvent{id: id, parent: parent, prio: prio, size: size, proc: proc, now: now, stolen: stolen})
		},
		TaskEnd: func(id int64, proc int, now int64) {
			run.events = append(run.events, taskEvent{end: true, id: id, proc: proc, now: now})
		},
	}
	run.res = eng.Run(simNode(k.InputWords(n), k.Name, w.Root))
	run.out = w.Output()
	return run
}

// TestSimLoweringMatchesReference holds the pooled sim lowering to the
// per-task one it replaced (simref_test.go): every fj kernel, at two sizes,
// under PWS and RWS, at p = 1, 2 and 8, with padded and unpadded stacks,
// must give an identical core.Result, an identical TaskStart/TaskEnd stream
// and identical output words.
func TestSimLoweringMatchesReference(t *testing.T) {
	for _, k := range registry.FJKernels() {
		sizes, ok := loweringSizes[k.Name]
		if !ok {
			t.Fatalf("no lowering-gate sizes for %q — add them to loweringSizes", k.Name)
		}
		for _, n := range sizes {
			for _, p := range []int{1, 2, 8} {
				for _, schedName := range []string{"pws", "rws"} {
					for _, padded := range []bool{false, true} {
						name := fmt.Sprintf("%s/n%d/p%d/%s/padded=%v", k.Name, n, p, schedName, padded)
						want := runLowered(fj.RefSimNode, k, n, p, schedName, padded)
						got := runLowered(fj.SimNode, k, n, p, schedName, padded)
						if !reflect.DeepEqual(got.res, want.res) {
							t.Errorf("%s: result\n got %+v\nwant %+v", name, got.res, want.res)
						}
						if i := firstDiff(got.events, want.events); i >= 0 {
							t.Errorf("%s: task events differ first at %d of %d/%d", name, i, len(got.events), len(want.events))
						}
						if !slices.Equal(got.out, want.out) {
							t.Errorf("%s: output words differ", name)
						}
					}
				}
			}
		}
	}
}

// firstDiff is the index of the first event where a and b differ, or −1.
func firstDiff(a, b []taskEvent) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
