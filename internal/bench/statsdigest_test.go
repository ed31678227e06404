package bench_test

// Cross-commit gate: no simulated statistic moves.  The golden determinism
// test compares a commit with itself; this one compares it with the commit
// that recorded testdata/*.sha256 — the SHA-256 of the normalized quick-mode
// rows (seed 0, JSON lines, exactly what benchmark/sim.go hashes for the full
// grid).  A change to the simulator's data structures must pass it without
// re-recording; a change that means to move a statistic re-records the file
// and says so.

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
)

func TestSimStatsDigestUnchanged(t *testing.T) {
	for _, id := range []string{"EXP01", "EXP14", "EXP15"} {
		t.Run(id, func(t *testing.T) {
			sum := sha256.Sum256(goldenJSONL(t, serialRows(t, id, true)))
			got := hex.EncodeToString(sum[:])
			file := "testdata/" + strings.ToLower(id) + "-quick.sha256"
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("no recorded digest (%v); this commit's is %s", err, got)
			}
			if got != strings.TrimSpace(string(want)) {
				t.Errorf("quick %s rows hash to %s, %s records %s: a simulated statistic moved",
					id, got, file, strings.TrimSpace(string(want)))
			}
		})
	}
}

// TestTaskLifecycleEvents is the trace-level property the row digests cannot
// see and task-record recycling could break: with Hooks set, every task id
// 1 … N is announced exactly once by TaskStart and once by TaskEnd, a task
// starts after its parent started and ends before its parent ends.
func TestTaskLifecycleEvents(t *testing.T) {
	for _, name := range []string{"Scan(M-Sum)", "spms"} {
		for _, s := range []core.Scheduler{sched.NewPWS(), sched.NewRWS(12345)} {
			t.Run(name+"/"+s.Name(), func(t *testing.T) {
				a, ok := bench.FindAlgo(name)
				if !ok {
					t.Fatalf("no sim kernel %q", name)
				}
				spec := bench.DefaultSpec(8)
				m := machine.New(machine.Config{P: spec.P, M: spec.M, B: spec.B, MissLatency: spec.MissLatency})
				root := a.Build(m, 1024, spec.Seed)
				eng := core.NewEngine(m, s, core.Options{})
				const unseen, running, ended = 0, 1, 2
				state := map[int64]int{-1: running} // -1: the root's parent
				parentOf := map[int64]int64{}
				var maxID int64
				eng.Hooks = &core.Hooks{
					TaskStart: func(id, parent int64, _ int, _ int64, _ int, _ int64, _ bool) {
						if state[id] != unseen {
							t.Errorf("task %d started twice", id)
						}
						if state[parent] != running {
							t.Errorf("task %d started while its parent %d is in state %d", id, parent, state[parent])
						}
						state[id], parentOf[id] = running, parent
						maxID = max(maxID, id)
					},
					TaskEnd: func(id int64, _ int, _ int64) {
						if state[id] != running {
							t.Errorf("task %d ended in state %d", id, state[id])
						}
						if state[parentOf[id]] != running {
							t.Errorf("task %d ended after its parent %d", id, parentOf[id])
						}
						state[id] = ended
					},
				}
				res := eng.Run(root)
				if res.Steals == 0 {
					t.Error("no steal at p = 8: the run exercises no cross-proc completion")
				}
				if int64(len(state)-1) != maxID || maxID < 1000 {
					t.Errorf("%d tasks announced, largest id %d", len(state)-1, maxID)
				}
				for id, st := range state {
					if id >= 0 && st != ended {
						t.Errorf("task %d left in state %d", id, st)
					}
				}
			})
		}
	}
}
