package trace

import (
	"testing"

	"repro/internal/algos/registry"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// sum builds an M-Sum-like BP tree over a.
func sum(a mem.Array, out mem.Addr) *core.Node {
	var build func(lo, hi int64, out mem.Addr) *core.Node
	build = func(lo, hi int64, out mem.Addr) *core.Node {
		if hi-lo == 1 {
			return core.Leaf(1, func(c *core.Ctx) { c.W(out, c.R(a.Addr(lo))) })
		}
		mid := lo + (hi-lo)/2
		return &core.Node{
			Size: hi - lo, Locals: 2,
			Fork: func(c *core.Ctx) (*core.Node, *core.Node) {
				return build(lo, mid, c.Local(0)), build(mid, hi, c.Local(1))
			},
			Join: func(c *core.Ctx) { c.W(out, c.R(c.Local(0))+c.R(c.Local(1))) },
		}
	}
	return build(0, a.Len(), out)
}

// record runs the computation build makes on a fresh p-core machine under
// Engine.Record and returns the tape.
func record(t *testing.T, p int, build func(m *machine.Machine) *core.Node) *core.Tape {
	t.Helper()
	m := machine.New(machine.Config{P: p, M: 256, B: 8, MissLatency: 4})
	root := build(m)
	_, tape, err := core.NewEngine(m, sched.NewPWS(), core.Options{}).Record(root)
	if err != nil {
		t.Fatal(err)
	}
	return tape
}

func tracedRun(t *testing.T, p int, n int64) Params {
	return Measure(record(t, p, func(m *machine.Machine) *core.Node {
		a := mem.NewArray(m.Space, n)
		a.Fill(1)
		return sum(a, m.Space.Alloc(1))
	}))
}

func TestTracerRecordsAllTasks(t *testing.T) {
	// A 64-leaf balanced tree has 127 nodes.
	if got := tracedRun(t, 2, 64).Tasks; got != 127 {
		t.Errorf("measured %d tasks, want 127", got)
	}
}

func TestTracerBlocksAttributeToAncestors(t *testing.T) {
	// The root's sets cover the whole input: 32 words at B=8 are 4 blocks,
	// and the output word one more.
	f := tracedRun(t, 1, 32).F
	if root := f[len(f)-1]; root.Size != 33 || root.Blocks != 5 {
		t.Errorf("largest task touched %d words in %d blocks, want 33 in 5", root.Size, root.Blocks)
	}
}

func TestFMeasureScanIsFlat(t *testing.T) {
	// M-Sum tasks access contiguous input plus O(1) locals: the f-excess
	// must stay bounded by a small constant across task sizes.
	for _, p := range tracedRun(t, 4, 256).F {
		if p.Excess > 6 {
			t.Errorf("size %d: f-excess %d too large for a scan", p.Size, p.Excess)
		}
	}
}

func TestLMeasureScanIsConstant(t *testing.T) {
	// M-Sum tasks share only the O(1) boundary blocks.
	for _, p := range tracedRun(t, 8, 512).L {
		if p.Shared > 8 {
			t.Errorf("size %d: %d shared blocks, want O(1) for scans", p.Size, p.Shared)
		}
	}
}

func TestBalanceRatioBalancedTree(t *testing.T) {
	if r := tracedRun(t, 4, 256).Balance; r > 1.01 {
		t.Errorf("balance ratio %f for a perfectly balanced tree", r)
	}
}

// TestLFollowsTheForkTree checks L(r) against Definition 2.3 on two tasks
// that write adjacent words of one block: forked, each shares the block
// with the other; as two stages of a sequence, which never run at once,
// neither does.  No schedule is involved, so a serial run shows it.
func TestLFollowsTheForkTree(t *testing.T) {
	shared := func(stages bool) int64 {
		return Measure(record(t, 1, func(m *machine.Machine) *core.Node {
			a := mem.NewArray(m.Space, 2)
			write := func(i int64) *core.Node {
				return core.Leaf(1, func(c *core.Ctx) { c.W(a.Addr(i), i) })
			}
			if stages {
				return core.Stages(2,
					func(*core.Ctx) *core.Node { return write(0) },
					func(*core.Ctx) *core.Node { return write(1) })
			}
			return &core.Node{Size: 2, Fork: func(*core.Ctx) (*core.Node, *core.Node) { return write(0), write(1) }}
		})).MaxL
	}
	if got := shared(false); got != 1 {
		t.Errorf("forked writers share %d blocks, want 1", got)
	}
	if got := shared(true); got != 0 {
		t.Errorf("sequenced writers share %d blocks, want 0", got)
	}
}

// TestLimitedAccess is Definition 2.4 over every sim kernel: the most
// writes the pass counts to one word, at two sizes, pinned.  A kernel whose
// count stays flat is limited access, and bound is its O(1); one whose
// count grows with n (bound 0) is not, and falls outside the hypothesis of
// the paper's bounds.
func TestLimitedAccess(t *testing.T) {
	table := []struct {
		kernel string
		n      [2]int64
		writes [2]int
		bound  int
	}{
		{"Scan(M-Sum)", [2]int64{4096, 16384}, [2]int{1, 1}, 2},
		{"Scan(PS)", [2]int64{4096, 16384}, [2]int{1, 1}, 1},
		{"MT (BI)", [2]int64{64, 128}, [2]int{1, 1}, 1},
		{"RM to BI", [2]int64{64, 128}, [2]int{1, 1}, 1},
		{"Direct BI-RM", [2]int64{64, 128}, [2]int{1, 1}, 1},
		{"BI-RM (gap RM)", [2]int64{64, 128}, [2]int{1, 1}, 1},
		{"BI-RM for FFT", [2]int64{64, 128}, [2]int{1, 1}, 1},
		{"Strassen (BI)", [2]int64{16, 32}, [2]int{1, 1}, 1},
		{"Depth-n-MM", [2]int64{16, 32}, [2]int{1, 1}, 1},
		{"FFT", [2]int64{1024, 4096}, [2]int{1, 1}, 1},
		{"Sort (HBP-MS)", [2]int64{1024, 4096}, [2]int{1, 1}, 1},
		{"LR", [2]int64{64, 128}, [2]int{2, 2}, 2},
		{"CC", [2]int64{32, 64}, [2]int{2, 2}, 2},
		{"transpose", [2]int64{32, 64}, [2]int{1, 1}, 1},
		{"gather", [2]int64{512, 2048}, [2]int{1, 1}, 1},
		{"scan", [2]int64{1024, 4096}, [2]int{2, 2}, 2},
		{"listrank", [2]int64{256, 1024}, [2]int{3, 3}, 3},
		{"strassen", [2]int64{16, 32}, [2]int{4, 4}, 4},
		{"spms", [2]int64{4096, 8192}, [2]int{11, 10}, 11},
		{"sortx", [2]int64{512, 2048}, [2]int{14, 15}, 0},
		{"fft", [2]int64{128, 512}, [2]int{8, 10}, 0},
		{"matmul", [2]int64{16, 32}, [2]int{16, 32}, 0},
	}
	sim := 0
	for _, k := range registry.All() {
		if k.Backend == registry.Sim {
			sim++
		}
	}
	if sim != len(table) {
		t.Errorf("%d sim kernels in the registry, %d in the table", sim, len(table))
	}
	for _, row := range table {
		t.Run(row.kernel, func(t *testing.T) {
			k, ok := registry.Find(row.kernel, registry.Sim)
			if !ok {
				t.Fatalf("no sim kernel %q", row.kernel)
			}
			for i, n := range row.n {
				got := Measure(record(t, 1, func(m *machine.Machine) *core.Node {
					return k.Sim.Build(m, n, 0)
				})).MaxWrites
				if got != row.writes[i] {
					t.Errorf("n=%d: most writes to one word %d, want %d", n, got, row.writes[i])
				}
				if row.bound > 0 && got > row.bound {
					t.Errorf("n=%d: %d writes to one word, over the limited-access bound %d", n, got, row.bound)
				}
			}
			if grows := row.writes[1] > row.writes[0]; grows != (row.bound == 0) {
				t.Errorf("writes %v with bound %d: a count that grows with n has no bound, and only such a count", row.writes, row.bound)
			}
		})
	}
}
