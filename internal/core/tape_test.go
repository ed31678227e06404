package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algos/registry"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sched"
)

// tapeInputs is the size of tapeComputation's input.
const tapeInputs = 64

// tapeComputation builds, on m, a computation that uses every part of a
// tape: a sequence whose stages are a fork tree summing the input into its
// parents' locals (stack words of the task and of its ancestors) with an
// allocation in its root's head that the leaves write, an engine-split range
// reading that allocation, a stage whose leaf allocates and fills an array,
// and a final Join.
func tapeComputation(m *machine.Machine) *core.Node {
	in := mem.NewArray(m.Space, tapeInputs)
	for i := range int64(tapeInputs) {
		in.Set(i, 5*i%7)
	}
	out := m.Space.Alloc(1)
	var scratch mem.Addr
	var sum func(lo, hi int64, dst mem.Addr) *core.Node
	sum = func(lo, hi int64, dst mem.Addr) *core.Node {
		if hi-lo == 1 {
			return core.Leaf(1, func(c *core.Ctx) {
				v := c.R(in.Addr(lo))
				c.W(scratch+lo%8, v)
				c.W(dst, v)
			})
		}
		mid := lo + (hi-lo)/2
		return &core.Node{
			Size: hi - lo, Locals: 2, Label: "sum",
			Fork: func(c *core.Ctx) (*core.Node, *core.Node) {
				if lo == 0 && hi == tapeInputs {
					scratch = c.Alloc(8)
				}
				c.Op(2)
				return sum(lo, mid, c.Local(0)), sum(mid, hi, c.Local(1))
			},
			Join: func(c *core.Ctx) { c.W(dst, c.R(c.Local(0))+c.R(c.Local(1))) },
		}
	}
	root := core.Stages(4*tapeInputs,
		func(c *core.Ctx) *core.Node { return sum(0, tapeInputs, out) },
		func(c *core.Ctx) *core.Node {
			return core.MapRange(0, tapeInputs/2, 2, func(c *core.Ctx, i int64) {
				c.Op(1)
				c.W(in.Addr(i), c.R(scratch+i%8)+i)
			})
		},
		func(c *core.Ctx) *core.Node {
			return core.Leaf(1, func(c *core.Ctx) {
				a := c.AllocArray(40)
				for i := range a.Len() {
					c.W(a.Addr(i), c.R(out))
				}
			})
		},
	)
	root.Join = func(c *core.Ctx) { c.W(out, c.R(out)+1) }
	return root
}

// tapeRun is what a run shows: its result and its task events.
type tapeRun struct {
	res    core.Result
	events []string
}

// tapeEngine builds the engine of one run and hooks its task events.
func tapeEngine(m *machine.Machine, name string, padded bool, run *tapeRun) *core.Engine {
	var s core.Scheduler = sched.NewPWS()
	if name == "rws" {
		s = sched.NewRWS(12345)
	}
	eng := core.NewEngine(m, s, core.Options{Padded: padded})
	eng.Hooks = &core.Hooks{
		TaskStart: func(id, parent int64, prio int, size int64, proc int, now int64, stolen bool) {
			run.events = append(run.events, fmt.Sprint("start", id, parent, prio, size, proc, now, stolen))
		},
		TaskEnd: func(id int64, proc int, now int64) {
			run.events = append(run.events, fmt.Sprint("end", id, proc, now))
		},
	}
	return eng
}

func tapeMachine(p int) *machine.Machine {
	return machine.New(machine.Config{P: p, M: 256, B: 8, MissLatency: 4})
}

// tapeConfig is one (p, scheduler, padding) a computation runs under.
type tapeConfig struct {
	p      int
	sched  string
	padded bool
}

func tapeConfigs() []tapeConfig {
	var configs []tapeConfig
	for _, p := range []int{1, 2, 8} {
		for _, s := range []string{"pws", "rws"} {
			for _, padded := range []bool{false, true} {
				configs = append(configs, tapeConfig{p, s, padded})
			}
		}
	}
	return configs
}

// recordLive records the computation under every configuration.
func recordLive(t *testing.T, configs []tapeConfig) ([]tapeRun, []*core.Tape) {
	live := make([]tapeRun, len(configs))
	tapes := make([]*core.Tape, len(configs))
	for i, c := range configs {
		m := tapeMachine(c.p)
		root := tapeComputation(m)
		eng := tapeEngine(m, c.sched, c.padded, &live[i])
		var err error
		live[i].res, tapes[i], err = eng.Record(root)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	}
	return live, tapes
}

// TestReplayMatchesLive records the computation under every (p, scheduler,
// padding) and replays each recording under every other: a replay must
// show exactly what a live run under its configuration shows.
func TestReplayMatchesLive(t *testing.T) {
	configs := tapeConfigs()
	live, tapes := recordLive(t, configs)
	for i, rc := range configs {
		for j, c := range configs {
			t.Run(fmt.Sprintf("%+v/%+v", rc, c), func(t *testing.T) {
				var got tapeRun
				m := tapeMachine(c.p)
				m.Space.Alloc(tapes[i].Inputs())
				got.res = tapeEngine(m, c.sched, c.padded, &got).Replay(tapes[i])
				if !reflect.DeepEqual(got.res, live[j].res) {
					t.Errorf("result differs:\n got %s\nwant %s", got.res, live[j].res)
				}
				if !reflect.DeepEqual(got.events, live[j].events) {
					t.Errorf("task events differ")
				}
			})
		}
	}
}

// TestRecordOfReplayReplays records a replay of the computation under every
// configuration — a recording may be handed a replay's root, as EXP14 is
// for a kernel whose node is one — and replays that recording under every
// configuration: each must show exactly what a live run does.
func TestRecordOfReplayReplays(t *testing.T) {
	configs := tapeConfigs()
	live, tapes := recordLive(t, configs)
	for i, rc := range configs {
		var rec tapeRun
		m := tapeMachine(rc.p)
		m.Space.Alloc(tapes[0].Inputs())
		var tape *core.Tape
		var err error
		rec.res, tape, err = tapeEngine(m, rc.sched, rc.padded, &rec).Record(tapes[0].Root())
		if err != nil {
			t.Fatalf("%+v: %v", rc, err)
		}
		if !reflect.DeepEqual(rec, live[i]) {
			t.Errorf("%+v: the recorded replay differs from a live run:\n got %s\nwant %s", rc, rec.res, live[i].res)
		}
		for j, c := range configs {
			var got tapeRun
			m := tapeMachine(c.p)
			m.Space.Alloc(tape.Inputs())
			got.res = tapeEngine(m, c.sched, c.padded, &got).Replay(tape)
			if !reflect.DeepEqual(got, live[j]) {
				t.Errorf("%+v/%+v: a replay of the recorded replay differs from a live run:\n got %s\nwant %s", rc, c, got.res, live[j].res)
			}
		}
	}
}

// TestRecordingRunsLive checks that recording leaves the run alone: the
// result and the task events are a plain run's.
func TestRecordingRunsLive(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		var plain, rec tapeRun
		m := tapeMachine(p)
		root := tapeComputation(m)
		plain.res = tapeEngine(m, "rws", false, &plain).Run(root)
		m = tapeMachine(p)
		root = tapeComputation(m)
		res, _, err := tapeEngine(m, "rws", false, &rec).Record(root)
		if err != nil {
			t.Fatal(err)
		}
		rec.res = res
		if !reflect.DeepEqual(rec, plain) {
			t.Errorf("p=%d: recording changed the run:\n got %s\nwant %s", p, rec.res, plain.res)
		}
	}
}

// TestReplayCrossesPages replays a tape of several pages, with one stream
// longer than a page and many records: a replay must follow streams from
// page to page and find every record where its page put it.
func TestReplayCrossesPages(t *testing.T) {
	const n = 1 << 12
	build := func(m *machine.Machine) *core.Node {
		in := mem.NewArray(m.Space, n)
		long := core.Leaf(1, func(c *core.Ctx) {
			for i := range int64(64 * n) {
				c.W(in.Addr(i*7%n), i)
				c.Op(i % 3)
			}
		})
		return core.Spread([]*core.Node{long, tapeSum(in, 0, n)})
	}
	m := tapeMachine(1)
	root := build(m)
	_, tape, err := tapeEngine(m, "pws", false, &tapeRun{}).Record(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		var want, got tapeRun
		m := tapeMachine(p)
		root := build(m)
		want.res = tapeEngine(m, "rws", true, &want).Run(root)
		m = tapeMachine(p)
		m.Space.Alloc(tape.Inputs())
		got.res = tapeEngine(m, "rws", true, &got).Replay(tape)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("p=%d: replay differs from a live run:\n got %s\nwant %s", p, got.res, want.res)
		}
	}
}

// tapeSum is a fork tree over in[lo:hi) whose leaves read a word each.
func tapeSum(in mem.Array, lo, hi int64) *core.Node {
	if hi-lo == 1 {
		return core.Leaf(1, func(c *core.Ctx) { c.R(in.Addr(lo)) })
	}
	mid := lo + (hi-lo)/2
	return &core.Node{Size: hi - lo, Locals: 1, Fork: func(c *core.Ctx) (*core.Node, *core.Node) {
		c.W(c.Local(0), lo)
		return tapeSum(in, lo, mid), tapeSum(in, mid, hi)
	}}
}

// TestWriterMatchesLowering writes a small fork-join computation with a
// Writer — a fork whose task allocates, a continuation, and a stage after
// the join — and replays the tape under every configuration: each must show
// what a live run of the Node tree the Writer describes shows.
func TestWriterMatchesLowering(t *testing.T) {
	inputs := func(m *machine.Machine) mem.Array { return mem.NewArray(m.Space, 8) }
	lowered := func(m *machine.Machine) *core.Node {
		in := inputs(m)
		task := &core.Node{Size: 1, Label: "fj·task", Seq: func(c *core.Ctx, stage int) *core.Node {
			if stage == 0 {
				a := c.AllocArray(8)
				c.W(a.Addr(3), c.R(in.Addr(2)))
			}
			return nil
		}}
		seg := &core.Node{Size: 1, Label: "fj·seg", Seq: func(c *core.Ctx, stage int) *core.Node {
			if stage == 0 {
				c.W(in.Addr(5), 1)
				c.Op(3)
			}
			return nil
		}}
		pair := &core.Node{Size: 1, Label: "fj·fork", Fork: func(*core.Ctx) (*core.Node, *core.Node) { return seg, task }}
		return &core.Node{Size: 8, Label: "root", Seq: func(c *core.Ctx, stage int) *core.Node {
			if stage == 0 {
				c.W(in.Addr(0), 7)
				return pair
			}
			c.R(in.Addr(5))
			return nil
		}}
	}
	m := tapeMachine(1)
	in := inputs(m)
	w := core.NewWriter(m.Space, 8, "root")
	w.W(in.Addr(0), 7)
	w.Fork()
	a := w.AllocArray(8)
	w.W(a.Addr(3), w.R(in.Addr(2)))
	w.Join()
	w.W(in.Addr(5), 1)
	w.Op(3)
	w.Join()
	w.R(in.Addr(5))
	w.Join()
	tape := w.Tape()
	for _, c := range tapeConfigs() {
		var want, got tapeRun
		m := tapeMachine(c.p)
		want.res = tapeEngine(m, c.sched, c.padded, &want).Run(lowered(m))
		m = tapeMachine(c.p)
		m.Space.Alloc(tape.Inputs())
		got.res = tapeEngine(m, c.sched, c.padded, &got).Replay(tape)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: the written tape's replay differs from a live run:\n got %s\nwant %s", c, got.res, want.res)
		}
	}
}

// TestReplayRootRefusesOtherInputs: a replay's root, run on an engine whose
// machine holds more words than the tape's inputs, panics.
func TestReplayRootRefusesOtherInputs(t *testing.T) {
	m := tapeMachine(2)
	_, tape, err := tapeEngine(m, "pws", false, &tapeRun{}).Record(tapeComputation(m))
	if err != nil {
		t.Fatal(err)
	}
	root := tape.Root()
	m = tapeMachine(2)
	m.Space.Alloc(tape.Inputs() + 1)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "replay of a tape") {
			t.Errorf("recovered %q, want the replay's refusal", msg)
		}
	}()
	core.NewEngine(m, sched.NewPWS(), core.Options{}).Run(root)
}

// walkCount is a Visitor that counts what a walk visits: accesses, and
// operations as the engine charges them — each charge, one for each task's
// head and one for each later action of its parent (a fork's or range
// task's join once, a sequence's next stage per stage) — and lists the
// tasks as a serial run's TaskStart hook does.
type walkCount struct {
	reads, writes, ops int64
	top                int
	kinds              []core.TaskKind
	kids               []int
	tasks              []string
}

func (w *walkCount) Task(t core.WalkTask) {
	if t.ID != len(w.kinds) {
		panic(fmt.Sprintf("task %d visited as the %d-th", t.ID, len(w.kinds)))
	}
	w.ops++
	if p := t.Parent; p >= 0 {
		if w.kinds[p] == core.KindSeq || w.kids[p] == 0 {
			w.ops++
		}
		w.kids[p]++
	}
	w.kinds, w.kids = append(w.kinds, t.Kind), append(w.kids, 0)
	w.tasks = append(w.tasks, fmt.Sprint(t.Parent, t.Prio, t.Size))
	w.top = max(w.top, t.Prio)
}

func (w *walkCount) Access(_ int, _ core.Word, write bool) {
	if write {
		w.writes++
	} else {
		w.reads++
	}
}

func (w *walkCount) Op(_ int, n int64) { w.ops += n }

// checkWalk walks t and replays it on m, a fresh one-core machine holding
// t's inputs, and checks that the walk visits the tasks the replay starts,
// in its order, and counts its accesses, operations and priorities.
func checkWalk(tb testing.TB, t *core.Tape, m *machine.Machine) {
	tb.Helper()
	var w walkCount
	t.Walk(&w)
	order := map[int64]int{-1: -1}
	var started []string
	eng := core.NewEngine(m, sched.NewPWS(), core.Options{})
	eng.Hooks = &core.Hooks{TaskStart: func(id, parent int64, prio int, size int64, _ int, _ int64, _ bool) {
		order[id] = len(started)
		started = append(started, fmt.Sprint(order[parent], prio, size))
	}}
	res := eng.Replay(t)
	if !reflect.DeepEqual(w.tasks, started) {
		tb.Errorf("the walk visits %d tasks, a serial replay starts %d, or they differ", len(w.tasks), len(started))
	}
	got := [4]int64{w.reads, w.writes, w.ops, int64(w.top + 1)}
	want := [4]int64{res.Total.Reads, res.Total.Writes, res.Total.Ops, int64(res.DistinctPrios)}
	if got != want {
		tb.Errorf("walk counts reads, writes, ops, priorities %v; a serial replay %v", got, want)
	}
}

// TestWalkMatchesSerialReplay checks Walk on a computation that uses every
// part of a tape, recorded under every configuration and written by a Writer.
func TestWalkMatchesSerialReplay(t *testing.T) {
	for _, c := range tapeConfigs() {
		m := tapeMachine(c.p)
		root := tapeComputation(m)
		_, tape, err := tapeEngine(m, c.sched, c.padded, &tapeRun{}).Record(root)
		if err != nil {
			t.Fatal(err)
		}
		m = tapeMachine(1)
		m.Space.Alloc(tape.Inputs())
		checkWalk(t, tape, m)
	}
	m := tapeMachine(1)
	in := mem.NewArray(m.Space, 8)
	w := core.NewWriter(m.Space, 8, "root")
	w.Fork()
	w.W(in.Addr(1), 1)
	w.Join()
	w.Op(3)
	w.R(in.Addr(1))
	w.Join()
	w.Join()
	m = tapeMachine(1)
	m.Space.Alloc(8)
	checkWalk(t, w.Tape(), m)
}

// TestWalkMatchesEXP14Kernels checks Walk on every key EXP14's quick grid
// records: each modelled kernel at its two smallest sizes, B = 16, seed 0.
func TestWalkMatchesEXP14Kernels(t *testing.T) {
	for _, name := range model.Names() {
		k, ok := registry.Find(name, registry.Sim)
		if !ok {
			t.Fatalf("modelled kernel %q not in the sim catalog", name)
		}
		for _, n := range k.Sim.Sizes[:2] {
			m := machine.New(machine.Default(1))
			root := k.Sim.Build(m, n, 0)
			_, tape, err := core.NewEngine(m, sched.NewPWS(), core.Options{}).Record(root)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			m = machine.New(machine.Default(1))
			m.Space.Alloc(tape.Inputs())
			checkWalk(t, tape, m)
		}
	}
}
