// Package sched implements the schedulers the paper studies: PWS, the
// deterministic Priority Work-Stealing scheduler (Section 4), and RWS, the
// classic randomized work stealer analyzed in the companion paper [13], used
// here as the baseline.
package sched

import (
	"math/bits"
	"sort"

	"repro/internal/core"
)

// PWS is the Priority Work-Stealing scheduler of Section 4.
//
// Tasks carry integer priorities that strictly decrease with depth (the
// engine numbers depth upward, so *numerically smaller = higher priority*).
// Stealing proceeds in rounds: the round priority is that of the
// highest-priority task at the head of any task queue; idle cores steal only
// tasks of exactly the round priority, and only from queue heads.  A core
// executing with an empty queue advertises an "imminent priority" flag —
// an upper bound on the priority of the task it has not yet generated
// (Section 4.7) — and thieves wait on a flagged round until the task
// materializes.
//
// The distributed implementation of Section 4.7 runs each scheduling phase
// as prefix-sums computations over steal and task trees in O(log p) steps;
// with padded computations the delay per steal is O(b·log p).  This
// implementation realizes the same round semantics centrally and charges
// each steal the distributed cost sP = b·(1+⌈log₂ p⌉).
type PWS struct {
	waiters   []int       // parked procs, ascending id
	lastRound map[int]int // last round priority each waiter was matched at
	matching  bool        // re-entrancy guard: Steal can fire Drained
}

// NewPWS returns a PWS scheduler.
func NewPWS() *PWS { return &PWS{lastRound: make(map[int]int)} }

// Name implements core.Scheduler.
func (s *PWS) Name() string { return "PWS" }

// Idle implements core.Scheduler: the proc becomes a waiter and a matching
// pass runs at its clock.
func (s *PWS) Idle(e *core.Engine, p int) {
	e.Park(p)
	s.addWaiter(p)
	s.match(e, e.ProcNow(p))
}

// Pushed implements core.Scheduler.
func (s *PWS) Pushed(e *core.Engine, v int) {
	if len(s.waiters) > 0 {
		s.match(e, e.ProcNow(v))
	}
}

// Drained implements core.Scheduler.
func (s *PWS) Drained(e *core.Engine, v int) {
	if len(s.waiters) > 0 {
		s.match(e, e.ProcNow(v))
	}
}

func (s *PWS) addWaiter(p int) {
	i := sort.SearchInts(s.waiters, p)
	if i < len(s.waiters) && s.waiters[i] == p {
		return
	}
	s.waiters = append(s.waiters, 0)
	copy(s.waiters[i+1:], s.waiters[i:])
	s.waiters[i] = p
}

func (s *PWS) removeWaiter(p int) {
	i := sort.SearchInts(s.waiters, p)
	if i < len(s.waiters) && s.waiters[i] == p {
		s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
		delete(s.lastRound, p)
	}
}

// match runs scheduling rounds at simulation instant now until no waiter can
// be served.  Each pass computes the round priority R = the numerically
// smallest priority among queue heads and imminent flags, then assigns
// waiters (ascending id) to queue heads of priority exactly R (ascending
// victim id).  If R comes only from a flag, thieves wait for the task to be
// generated (a Pushed event re-runs the match).
func (s *PWS) match(e *core.Engine, now int64) {
	if s.matching {
		return
	}
	s.matching = true
	defer func() { s.matching = false }()
	for len(s.waiters) > 0 {
		roundPrio, fromHead := s.roundPriority(e)
		if roundPrio < 0 {
			return // no work advertised anywhere
		}
		// Charge one steal attempt per waiter newly seeing this round
		// (Corollary 4.1 counts attempts per round).
		for _, w := range s.waiters {
			if last, ok := s.lastRound[w]; !ok || last != roundPrio {
				s.lastRound[w] = roundPrio
				e.CountAttempts(1)
			}
		}
		if !fromHead {
			return // flagged round: wait for the task to be generated
		}
		assigned := s.assignRound(e, roundPrio, now)
		if assigned == 0 {
			return
		}
	}
}

// roundPriority returns the smallest advertised priority and whether it is
// advertised by an actual queue head (as opposed to only an imminent flag).
func (s *PWS) roundPriority(e *core.Engine) (prio int, fromHead bool) {
	prio = -1
	for v := 0; v < e.NumProcs(); v++ {
		if hp, ok := e.DequeHeadPrio(v); ok {
			if prio < 0 || hp < prio || (hp == prio && !fromHead) {
				prio, fromHead = hp, true
			}
			continue
		}
		if xp, ok := e.ExecPrio(v); ok {
			flag := xp + 1
			if prio < 0 || flag < prio {
				prio, fromHead = flag, false
			}
		}
	}
	return prio, fromHead
}

// assignRound matches waiters to victims whose head has priority roundPrio.
func (s *PWS) assignRound(e *core.Engine, roundPrio int, now int64) int {
	assigned := 0
	ov := e.MissLatency() * int64(1+ceilLog2(e.NumProcs())) // sP
	for v := 0; v < e.NumProcs() && len(s.waiters) > 0; v++ {
		hp, ok := e.DequeHeadPrio(v)
		if !ok || hp != roundPrio {
			continue
		}
		w := s.waiters[0]
		s.removeWaiter(w)
		if e.Steal(v, w, now, ov) {
			assigned++
			// Re-examine v: its new head may again match.
			v--
		} else {
			s.addWaiter(w) // victim emptied concurrently; keep waiting
		}
	}
	return assigned
}

func ceilLog2(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}
