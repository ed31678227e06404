package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algos/registry"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
)

// hookedRun is what one run shows: its result, and a hash and a count of
// its TaskStart/TaskEnd stream.
type hookedRun struct {
	res    core.Result
	events uint64
	n      int
}

// mix folds the fields of one task event into the run's hash (FNV-1a over
// 64-bit words).
func (r *hookedRun) mix(fields ...int64) {
	if r.n == 0 {
		r.events = 14695981039346656037
	}
	for _, f := range fields {
		r.events = (r.events ^ uint64(f)) * 1099511628211
	}
	r.n++
}

// hooked builds the spec's engine over m with the run's task events hashed
// into run.
func hooked(m *machine.Machine, spec Spec, run *hookedRun) *core.Engine {
	eng := newEngine(m, spec)
	eng.Hooks = &core.Hooks{
		TaskStart: func(id, parent int64, prio int, size int64, proc int, now int64, stolen bool) {
			s := int64(0)
			if stolen {
				s = 1
			}
			run.mix(1, id, parent, int64(prio), size, int64(proc), now, s)
		},
		TaskEnd: func(id int64, proc int, now int64) { run.mix(2, id, int64(proc), now) },
	}
	return eng
}

// TestEXP14ReplayMatchesLive is the gate replay rests on: every EXP14
// kernel at its two smallest sizes is recorded under each (p, scheduler) —
// p ∈ {1, 2, 8}, PWS and RWS, padded under each scheduler once — and each
// recording is replayed under the next configuration in the cycle, which
// differs in p and scheduler (and twice in padding).  The replay must give
// the live run's core.Result and its TaskStart/TaskEnd stream.
func TestEXP14ReplayMatchesLive(t *testing.T) {
	type config struct {
		p      int
		sched  string
		padded bool
	}
	var configs []config
	for i := range 6 {
		configs = append(configs, config{[]int{1, 2, 8}[i%3], []string{"pws", "rws"}[i%2], i < 3})
	}
	for _, name := range model.Names() {
		a, ok := FindAlgo(name)
		if !ok {
			t.Fatalf("modelled kernel %q not in the sim catalog", name)
		}
		for _, n := range a.Sizes[:2] {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				t.Parallel()
				specs := make([]Spec, len(configs))
				live := make([]hookedRun, len(configs))
				tapes := make([]*core.Tape, len(configs))
				for i, c := range configs {
					specs[i] = exp14Spec(c.p, 16, c.sched, 0, 0)
					specs[i].Padded = c.padded
					m := newMachine(specs[i])
					root := a.Build(m, n, 0)
					var err error
					live[i].res, tapes[i], err = hooked(m, specs[i], &live[i]).Record(root)
					if err != nil {
						t.Fatalf("%+v: recording refused: %v", c, err)
					}
				}
				for i := range configs {
					j := (i + 1) % len(configs)
					var got hookedRun
					m := newMachine(specs[j])
					m.Space.Alloc(tapes[i].Inputs())
					got.res = hooked(m, specs[j], &got).Replay(tapes[i])
					if !reflect.DeepEqual(got.res, live[j].res) {
						t.Errorf("recorded under %+v, replayed under %+v: result differs:\n got %s\nwant %s",
							configs[i], configs[j], got.res, live[j].res)
					}
					if got.events != live[j].events || got.n != live[j].n {
						t.Errorf("recorded under %+v, replayed under %+v: %d task events, want %d, or their stream differs",
							configs[i], configs[j], got.n, live[j].n)
					}
				}
			})
		}
	}
}

// TestObliviousKernelsRecordOneTape is the oblivious-trace oracle: a kernel
// whose task tree and access stream do not depend on its input records
// byte-equal tapes at seeds 0 and 7 — the Table-1 kernels below and the fj
// scan, fft, transpose, matmul and strassen — while the fj kernels whose
// accesses follow their input (gather and listrank chase indices, sortx and
// spms compare keys) do not.
func TestObliviousKernelsRecordOneTape(t *testing.T) {
	oblivious := []string{"Scan(M-Sum)", "Scan(PS)", "MT (BI)", "RM to BI", "Direct BI-RM",
		"BI-RM (gap RM)", "Strassen (BI)", "Depth-n-MM", "FFT",
		"scan", "fft", "transpose", "matmul", "strassen"}
	dataDependent := []string{"gather", "listrank", "sortx", "spms"}
	record := func(a Algo, seed uint64) [32]byte {
		spec := exp14Spec(1, 16, "pws", 0, seed)
		m := newMachine(spec)
		root := a.Build(m, a.Sizes[0], seed)
		_, tape, err := newEngine(m, spec).Record(root)
		if err != nil {
			t.Fatalf("%s: recording refused: %v", a.Name, err)
		}
		return tape.Sum()
	}
	for i, name := range append(oblivious, dataDependent...) {
		a, ok := FindAlgo(name)
		if !ok {
			t.Fatalf("kernel %q not in the sim catalog", name)
		}
		same := record(a, 0) == record(a, 7)
		if want := i < len(oblivious); same != want {
			t.Errorf("%s: tapes at seeds 0 and 7 equal = %v, want %v", name, same, want)
		}
	}
}

// TestTapesRunRefusedKeysLive checks a key whose recording is refused: every
// cell of it runs live, and the expansion keeps no tape for it.
func TestTapesRunRefusedKeysLive(t *testing.T) {
	// The right task reads a stack word of its sibling, which has no symbol
	// on a tape; local starts at an input word for a schedule that runs the
	// right task first.
	a := Algo{Name: "reads a sibling's stack word", Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
		out := m.Space.Alloc(2)
		local := out + 1
		return &core.Node{Size: 2, Fork: func(c *core.Ctx) (*core.Node, *core.Node) {
			left := &core.Node{Size: 1, Locals: 1, Fork: func(c *core.Ctx) (*core.Node, *core.Node) {
				local = c.Local(0)
				return core.Leaf(1, func(c *core.Ctx) { c.W(local, 1) }), nil
			}}
			right := core.Leaf(1, func(c *core.Ctx) { c.W(out, c.R(local)) })
			return left, right
		}}
	}}
	ts := &tapes{m: map[tapeKey]*core.Tape{}}
	for _, p := range []int{1, 2, 8, 2} {
		spec := exp14Spec(p, 16, "rws", 0, 0)
		if got, want := ts.run(a, 64, spec), Run(a, 64, spec); !reflect.DeepEqual(got, want) {
			t.Errorf("p=%d: result differs from a live run:\n got %s\nwant %s", p, got, want)
		}
	}
	if len(ts.m) != 1 {
		t.Fatalf("%d keys, want 1", len(ts.m))
	}
	for k, tape := range ts.m {
		if tape != nil {
			t.Errorf("key %+v keeps a tape of a refused recording", k)
		}
	}
}

// TestFJSimDigestUnchanged is the cross-commit gate for the fj sim
// lowerings, whose rows EXP01 and EXP14 do not carry (they run the
// hand-built Table-1 twins): each of the nine fj kernels at its smallest sim
// size, at p ∈ {1, 4} under PWS and RWS, hashes its core.Result and its
// TaskStart/TaskEnd stream, and each kernel's hash must equal its line of
// testdata/fj-sim-quick.sha256 ("<sha256> <kernel>", one line per kernel,
// so a change to one kernel's source moves one line).  Re-record a line
// only when a simulated statistic of that kernel is meant to move.
func TestFJSimDigestUnchanged(t *testing.T) {
	var got []string
	for _, k := range registry.All() {
		if k.FJ == nil || k.Backend != registry.Sim {
			continue
		}
		h := sha256.New()
		for _, p := range []int{1, 4} {
			for _, s := range []string{"pws", "rws"} {
				spec := exp14Spec(p, 16, s, 0, 0)
				m := newMachine(spec)
				root := k.Sim.Build(m, k.Sim.Sizes[0], 0)
				var run hookedRun
				run.res = hooked(m, spec, &run).Run(root)
				fmt.Fprintf(h, "%s n=%d p=%d %s: %+v events=%d/%x\n",
					k.Name, k.Sim.Sizes[0], p, s, run.res, run.n, run.events)
			}
		}
		got = append(got, hex.EncodeToString(h.Sum(nil))+" "+k.Name)
	}
	const file = "testdata/fj-sim-quick.sha256"
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("no recorded digest (%v); this commit's is\n%s", err, strings.Join(got, "\n"))
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d fj kernels, %s records %d; this commit's digest is\n%s",
			len(got), file, len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("a simulated statistic moved:\n got %s\nwant %s (%s)", got[i], want[i], file)
		}
	}
}
