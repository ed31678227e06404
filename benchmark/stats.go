package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// Every timing keeps its raw nanosecond samples; these helpers turn a
// sample slice into the reported numbers.

// quantile returns the nearest-rank q-quantile of s, sorting it in place;
// 0 for an empty slice.
func quantile(s []int64, q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// fastest returns the mean of the lowest share of s — at least one sample,
// so share 0 picks the minimum — sorting it in place; 0 for an empty slice.
// The reference box is a shared host on which a neighbour slows memory-bound
// code by 20–60% for seconds at a time, then lets go for seconds (README.md,
// "Sizing"): the median of repeated runs of one operation flips between the
// two regimes from run to run, the fastest share reads the undisturbed one
// whenever a run holds any quiet spell at all.
func fastest[T int64 | float64](s []T, share float64) float64 {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	n := min(max(int(share*float64(len(s))), 1), len(s))
	var sum float64
	for _, v := range s[:n] {
		sum += float64(v)
	}
	return sum / float64(n)
}

// windows deals the values v, sampled at offsets at from the start of a
// phase of length span, into consecutive windows of about width — exactly
// as many whole windows as fit, at least one — and returns f of every
// window that holds a sample.  Reporting fastest(windows(…), windowShare)
// is how serve_mixed reads a statistic over the quiet part of a phase.
func windows(at, v []int64, span, width time.Duration, f func([]int64) float64) []float64 {
	n := max(int(span/width), 1)
	parts := make([][]int64, n)
	for i, t := range at {
		w := min(int(int64(n)*t/int64(span)), n-1)
		parts[w] = append(parts[w], v[i])
	}
	var out []float64
	for _, part := range parts {
		if len(part) > 0 {
			out = append(out, f(part))
		}
	}
	return out
}

// timesOf times fn reps times.
func timesOf(reps int, fn func()) []int64 {
	s := make([]int64, reps)
	for i := range s {
		t0 := time.Now()
		fn()
		s[i] = time.Since(t0).Nanoseconds()
	}
	return s
}

// costliest returns the highest third of v — at least one value — sorting
// it in place.  Its geometric mean is the tail across the members of a
// set (kernels, sampled cells) where the tail across repeats of one member
// would be the host's.
func costliest(v []float64) []float64 {
	slices.Sort(v)
	return v[len(v)-max(len(v)/3, 1):]
}

// geomean returns the geometric mean of positive values.
func geomean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// memMark reads the allocation counters; deltas between two marks give
// alloc_kb_per_op and the per-run malloc counts.
type memMark struct{ bytes, mallocs uint64 }

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.TotalAlloc, m.Mallocs}
}

// kbPerOp is the TotalAlloc delta since the mark divided over ops.
func (a memMark) kbPerOp(ops int) float64 {
	return float64(markMem().bytes-a.bytes) / 1024 / float64(max(ops, 1))
}

// rng is splitmix64: a tiny seeded stream for request seeds, arrival times,
// class draws and verification samples, so one -seed fixes every input of a
// run.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in (0, 1].
func (r *rng) float() float64 { return (float64(r.next()>>11) + 1) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// repeatSetup runs setup reps times, tearing down all but the last result,
// and returns that result with the set-up time in seconds: setup_s is the
// mean of the fastest setupShare of the set-ups made within one run (the
// median of them flips with the host's spells like every other median).
func repeatSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last T
		s    = make([]int64, reps)
	)
	for i := range s {
		if i > 0 {
			teardown(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		s[i] = time.Since(t0).Nanoseconds()
		last = v
	}
	return last, fastest(s, setupShare) / 1e9, nil
}
