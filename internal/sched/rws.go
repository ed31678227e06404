package sched

import (
	"math/rand"

	"repro/internal/core"
)

// RWS is the classic randomized work-stealing scheduler (Blumofe–Leiserson),
// the baseline whose cache and block miss behaviour on multicores is analyzed
// in the companion paper [13].  An idle core picks a victim uniformly at
// random and steals the task at the head (top) of its deque; every attempt,
// failed or successful, costs b (at least one cache miss, Section 4.4), and
// a failed one is retried.
//
// The PRNG is seeded, so runs are reproducible.
type RWS struct {
	rng *rand.Rand
}

// NewRWS returns an RWS scheduler with the given seed.
func NewRWS(seed int64) *RWS {
	return &RWS{rng: rand.New(rand.NewSource(seed))}
}

// Name implements core.Scheduler.
func (s *RWS) Name() string { return "RWS" }

// Idle implements core.Scheduler: one randomized steal attempt.  If every
// deque is empty the proc's clock fast-forwards to the earliest busy proc so
// the simulation does not grind through futile attempts one by one; this
// does not change any schedule decision, only skips empty polling.
func (s *RWS) Idle(e *core.Engine, p int) {
	ov := e.MissLatency()
	e.CountAttempts(1)
	if e.NumProcs() == 1 {
		e.ChargeSteal(p, ov)
		return
	}
	victim := s.rng.Intn(e.NumProcs() - 1)
	if victim >= p {
		victim++
	}
	now := e.ProcNow(p)
	if e.Steal(victim, p, now, ov) {
		return
	}
	e.ChargeSteal(p, ov)
	if !e.AnyDequeNonEmpty() {
		if t, busy := e.MinBusyNow(); busy && t > e.ProcNow(p) {
			e.FastForward(p, t)
		}
	}
}

// Pushed implements core.Scheduler (no-op: RWS polls).
func (s *RWS) Pushed(e *core.Engine, v int) {}

// Drained implements core.Scheduler (no-op).
func (s *RWS) Drained(e *core.Engine, v int) {}
