package main

import (
	"fmt"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/fj"
	"repro/internal/rt"
)

// Library use, no service: every invocable through fj.RunReal on a reused
// rt.Pool, at p = 1 and p = procs.  algos + fj + rt stealing + arena do all
// the work here; serve does none and per-call spin-up under 2%.

// kernelSizes gives each kernel's size parameter (the n of Invocable.Gen)
// at full and at smoke scale.
var kernelSizes = []struct {
	name        string
	full, short int64
}{
	{"sort", 1 << 17, 1 << 10},
	{"sortx", 1 << 17, 1 << 10},
	{"scan", 1 << 21, 1 << 12},
	{"gather", 1 << 20, 1 << 12},
	{"listrank", 1 << 15, 1 << 8},
	{"fft", 1 << 16, 1 << 8},
	{"transpose", 1024, 32},
	{"matmul", 256, 16},
	{"strassen", 256, 16},
}

const (
	kernelWarmup    = 5  // untimed runs per (kernel, p), part of set-up
	kernelMinRounds = 10 // timed rounds made however short the run
)

// kernelCase is one kernel with its payload, its reused output buffer and
// its raw run-time samples at p = 1 and p = procs.
type kernelCase struct {
	k       registry.Invocable
	in, out []int64
	stock   stockKernel
	ns      [2][]int64 // [0] p = 1, [1] p = procs
}

// fastMS is the kernel's undisturbed run time on pool i, in ms.
func (c *kernelCase) fastMS(i int) float64 { return fastest(c.ns[i], 0) / 1e6 }

type kernelSet struct {
	cases             []*kernelCase
	pools             [2]*rt.Pool
	attempted, failed int
	// Counter deltas of the p = procs pool over the timed sweep.
	steals, attempts, executed int64
}

// runOnce times one fj.RunReal of the kernel on pool i.  With a tracer the
// root closure also stamps the kernel itself, so the pool_run span's self
// time is the spin-up and join.
func (c *kernelCase) runOnce(pool *rt.Pool, tr *tracer) int64 {
	if tr == nil {
		t0 := time.Now()
		fj.RunReal(pool, func(fc *fj.Ctx) { c.k.Run(fc, c.in, c.out) })
		return time.Since(t0).Nanoseconds()
	}
	var k0, k1 time.Time
	t0 := time.Now()
	fj.RunReal(pool, func(fc *fj.Ctx) {
		k0 = time.Now()
		c.k.Run(fc, c.in, c.out)
		k1 = time.Now()
	})
	t1 := time.Now()
	id := tr.id()
	tr.rec(id, id, 0, "rt", "pool_run/"+c.k.Name, t0, t1)
	tr.rec(id, tr.id(), id, "algos", "kernel/"+c.k.Name, k0, k1)
	return t1.Sub(t0).Nanoseconds()
}

// setupKernels generates the payloads, runs and verifies every stock
// baseline once, verifies the first run per (kernel, p) and warms up.
func setupKernels(seed uint64, short bool) (*kernelSet, error) {
	ks := &kernelSet{pools: [2]*rt.Pool{rt.NewPool(1, rt.Random), rt.NewPool(0, rt.Random)}}
	for _, s := range kernelSizes {
		k := mustInvocable(s.name)
		n := s.full
		if short {
			n = s.short
		}
		in, err := k.Gen(n, seed)
		if err != nil {
			return nil, fmt.Errorf("gen %s: %w", s.name, err)
		}
		if err := k.Validate(in); err != nil {
			return nil, fmt.Errorf("validate %s: %w", s.name, err)
		}
		c := &kernelCase{k: k, in: in, out: make([]int64, k.OutLen(in)), stock: stockFor(s.name, in)}
		for i := range c.ns {
			c.ns[i] = make([]int64, 0, 1<<12)
		}
		c.stock.run()
		ks.attempted++
		if !k.Verify(in, c.stock.words()) {
			ks.failed++
		}
		for _, pool := range ks.pools {
			for i := 0; i < kernelWarmup; i++ {
				c.runOnce(pool, nil)
				if i == 0 {
					ks.attempted++
					if !k.Verify(in, c.out) {
						ks.failed++
					}
				}
			}
		}
		ks.cases = append(ks.cases, c)
	}
	return ks, nil
}

// sweep runs rounds of every (kernel, p) once, in turn, until the time is
// up; interleaving spreads machine drift evenly over the kernels.
func (ks *kernelSet) sweep(seconds float64, tr *tracer) (runs int) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round < kernelMinRounds || time.Now().Before(deadline); round++ {
		for _, c := range ks.cases {
			for i, pool := range ks.pools {
				c.ns[i] = append(c.ns[i], c.runOnce(pool, tr))
				runs++
			}
		}
	}
	return
}

// kernelsDirect is the library workload.
func kernelsDirect(seed uint64, sc scale, tr *tracer) (result, *kernelSet, error) {
	res := result{Workload: "kernels_direct"}
	ks, setupS, err := repeatSetup(sc.setupReps(kernelSetups),
		func() (*kernelSet, error) { return setupKernels(seed, sc.short) },
		func(*kernelSet) {})
	if err != nil {
		return res, nil, err
	}
	mem := markMem()
	pn := ks.pools[1]
	s0, a0, e0 := pn.Steals(), pn.StealAttempts(), pn.Executed()
	runs := ks.sweep(sc.seconds, tr)
	ks.steals, ks.attempts, ks.executed = pn.Steals()-s0, pn.StealAttempts()-a0, pn.Executed()-e0
	kb := mem.kbPerOp(runs)

	// The last run's output of every kernel is checked too, so a kernel
	// that goes wrong only when its buffers are reused cannot pass.
	for _, c := range ks.cases {
		ks.attempted++
		if !c.k.Verify(c.in, c.out) {
			ks.failed++
		}
	}
	res.Attempted, res.Failed = ks.attempted, ks.failed
	// Each (kernel, p) is read off its fastest run, the undisturbed one.
	var (
		wide, serial       []float64 // ms at p = procs and at p = 1, per kernel
		medWide, medSerial []float64 // the same as medians, for the note
		sum                float64
	)
	for _, c := range ks.cases {
		p1, pn := c.fastMS(0), c.fastMS(1)
		wide, serial = append(wide, pn), append(serial, p1)
		sum += p1 + pn
		medWide, medSerial = append(medWide, ms(quantile(c.ns[1], 0.50))), append(medSerial, ms(quantile(c.ns[0], 0.50)))
	}
	n := len(ks.cases[0].ns[1])
	res.note("medians over the %d rounds, disturbed or not: kernel geomean %.4g ms at p=%d, %.4g ms at p=1", n, geomean(medWide), procs, geomean(medSerial))
	res.add("setup_s", setupS, "s", sc.setupReps(kernelSetups))
	res.add("ops_per_s", 1000*float64(2*len(ks.cases))/sum, "1/s", runs)
	res.add("lat_typ_ms", geomean(wide), "ms", n)
	res.add("lat_tail_ms", geomean(costliest(wide)), "ms", n)
	res.add("heavy_ms", geomean(serial), "ms", n)
	res.add("alloc_kb_per_op", kb, "KB", runs)
	res.add("ok_share", 1-float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	return res, ks, nil
}

func runKernelsDirect(seed uint64, sc scale, tr *tracer) (result, error) {
	r, _, err := kernelsDirect(seed, sc, tr)
	return r, err
}
