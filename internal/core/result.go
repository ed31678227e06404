package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
)

// Result aggregates the metrics of one engine run — exactly the quantities
// the paper's bounds speak about.
type Result struct {
	Scheduler string
	P         int
	M         int
	B         int

	// Makespan is the largest core clock at completion (simulated time,
	// including miss latencies, block waits, steal overhead and idling).
	Makespan int64
	// Work is W(n): total unit operations (compute + memory accesses).
	Work int64
	// CritPath is T∞(n): the critical-path length in unit operations.
	CritPath int64

	Total   machine.ProcStats
	PerProc []machine.ProcStats

	// Steals is the number of successful steals; StealsByPrio the breakdown
	// checked against Observation 4.3 (≤ p−1 per priority).
	Steals       int64
	StealsByPrio map[int]int64
	// StealAttempts is checked against Corollary 4.1 (≤ 2·p·D′).
	StealAttempts int64
	// Usurpations counts kernel takeovers (Definition 4.1).
	Usurpations int64
	// DistinctPrios is D′, the number of distinct task priorities.
	DistinctPrios int

	// BlockTransfers is the total block delay summed over blocks
	// (Definition 2.2); MaxBlockTransfers the worst single block.
	BlockTransfers    int64
	MaxBlockTransfers int64

	// StackHighWater is the deepest execution-stack use across procs, in
	// words.
	StackHighWater int64
}

func (e *Engine) result() Result {
	res := Result{
		Scheduler:      e.sched.Name(),
		P:              e.m.Cfg.P,
		M:              e.m.Cfg.M,
		B:              e.m.Cfg.B,
		Makespan:       e.m.Makespan(),
		CritPath:       e.rootCP,
		Total:          e.m.Total(),
		Steals:         e.steals,
		StealsByPrio:   e.stealsByPrio,
		StealAttempts:  e.attempts,
		Usurpations:    e.usurpations,
		DistinctPrios:  e.maxPrio + 1,
		BlockTransfers: e.m.Dir.Transfers,
	}
	res.Work = res.Total.Ops + res.Total.Reads + res.Total.Writes
	for _, ps := range e.ps {
		res.PerProc = append(res.PerProc, ps.p.Stats)
		if ps.stack.highWater > res.StackHighWater {
			res.StackHighWater = ps.stack.highWater
		}
	}
	_, res.MaxBlockTransfers = e.m.Dir.MaxBlockTransfers()
	return res
}

// BlockMisses returns the coherence misses plus upgrade misses — the
// false-sharing cost the paper's block-miss analysis bounds.
func (r Result) BlockMisses() int64 { return r.Total.BlockMisses + r.Total.UpgradeMisses }

// MaxStealsPerPrio returns the largest per-priority steal count.
func (r Result) MaxStealsPerPrio() int64 {
	var max int64
	for _, v := range r.StealsByPrio {
		if v > max {
			max = v
		}
	}
	return max
}

// String renders a compact single-run report.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s p=%d M=%d B=%d: makespan=%d work=%d T∞=%d\n",
		r.Scheduler, r.P, r.M, r.B, r.Makespan, r.Work, r.CritPath)
	fmt.Fprintf(&b, "  misses: cache=%d block=%d upgrade=%d blockWait=%d transfers=%d (max/block %d)\n",
		r.Total.ColdMisses, r.Total.BlockMisses, r.Total.UpgradeMisses,
		r.Total.BlockWait, r.BlockTransfers, r.MaxBlockTransfers)
	fmt.Fprintf(&b, "  steals=%d (max/prio %d, D'=%d, attempts=%d) usurp=%d idle=%d\n",
		r.Steals, r.MaxStealsPerPrio(), r.DistinctPrios, r.StealAttempts,
		r.Usurpations, r.Total.IdleTime)
	return b.String()
}

// PrioHistogram renders the per-priority steal counts in priority order.
func (r Result) PrioHistogram() string {
	prios := make([]int, 0, len(r.StealsByPrio))
	for p := range r.StealsByPrio {
		prios = append(prios, p)
	}
	sort.Ints(prios)
	var b strings.Builder
	for _, p := range prios {
		fmt.Fprintf(&b, "prio %3d: %d\n", p, r.StealsByPrio[p])
	}
	return b.String()
}
