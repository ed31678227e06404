package sched

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
)

// balancedSum builds an M-Sum-like BP tree for scheduler tests.
func balancedSum(a mem.Array, out mem.Addr) *core.Node {
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

func runSum(p int, n int64, s core.Scheduler) (int64, core.Result) {
	m := machine.New(machine.Config{P: p, M: 256, B: 8, MissLatency: 4})
	a := mem.NewArray(m.Space, n)
	a.Fill(1)
	out := m.Space.Alloc(1)
	res := core.NewEngine(m, s, core.Options{}).Run(balancedSum(a, out))
	return m.Space.Load(out), res
}

func TestPWSCorrectAcrossProcs(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16, 32} {
		got, _ := runSum(p, 512, NewPWS())
		if got != 512 {
			t.Errorf("p=%d: sum = %d", p, got)
		}
	}
}

func TestPWSStealsShallowestFirst(t *testing.T) {
	// Under PWS, the first steal must take the shallowest available task:
	// priority 1 (the root's right child).
	_, res := runSum(4, 256, NewPWS())
	if res.Steals == 0 {
		t.Fatal("no steals")
	}
	if res.StealsByPrio[1] == 0 {
		t.Errorf("no steal at priority 1; histogram: %v", res.StealsByPrio)
	}
	// And never more than p−1 at any priority (Observation 4.3).
	for prio, k := range res.StealsByPrio {
		if k > 3 {
			t.Errorf("priority %d stolen %d times (p−1 = 3)", prio, k)
		}
	}
}

func TestPWSAttemptBound(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		_, res := runSum(p, 1024, NewPWS())
		if bound := 2 * int64(p) * int64(res.DistinctPrios); res.StealAttempts > bound {
			t.Errorf("p=%d: attempts %d > 2pD' = %d", p, res.StealAttempts, bound)
		}
	}
}

func TestPWSStealOverheadLogP(t *testing.T) {
	// The distributed implementation charges sP = b·(1+⌈log₂p⌉) per steal.
	s := NewPWS()
	m := machine.New(machine.Config{P: 8, M: 256, B: 8, MissLatency: 4})
	a := mem.NewArray(m.Space, 64)
	a.Fill(1)
	out := m.Space.Alloc(1)
	res := core.NewEngine(m, s, core.Options{}).Run(balancedSum(a, out))
	if res.Steals > 0 && res.Total.StealTime < res.Steals*4 {
		t.Errorf("steal time %d too small for %d steals", res.Total.StealTime, res.Steals)
	}
}

func TestRWSSeedDeterminism(t *testing.T) {
	_, r1 := runSum(8, 512, NewRWS(99))
	_, r2 := runSum(8, 512, NewRWS(99))
	if r1.Makespan != r2.Makespan || r1.Steals != r2.Steals {
		t.Error("same-seed RWS runs differ")
	}
	_, r3 := runSum(8, 512, NewRWS(100))
	if r3.Makespan == r1.Makespan && r3.Steals == r1.Steals && r3.StealAttempts == r1.StealAttempts {
		t.Log("different seeds produced identical schedules (possible but unlikely)")
	}
}

func TestRWSMoreAttemptsThanPWS(t *testing.T) {
	// RWS polls blindly; PWS attempts are bounded by rounds.  On the same
	// computation RWS should need at least as many attempts.
	_, pws := runSum(8, 1024, NewPWS())
	_, rws := runSum(8, 1024, NewRWS(5))
	if rws.StealAttempts < pws.StealAttempts {
		t.Errorf("RWS attempts (%d) < PWS attempts (%d)", rws.StealAttempts, pws.StealAttempts)
	}
}

func TestRWSSingleProc(t *testing.T) {
	got, _ := runSum(1, 64, NewRWS(1))
	if got != 64 {
		t.Errorf("sum = %d", got)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6}
	for in, want := range cases {
		if got := ceilLog2(in); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", in, got, want)
		}
	}
}
