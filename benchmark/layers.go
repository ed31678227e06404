package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/arena"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/serve"
)

// The traced pass.  Every layer is measured from outside, by timing calls
// into its public functions; spans inside the program are a later change.
// One pass covers every layer and prints every per-layer metric.

// tracedClass is one request shape replayed serially, by one client, three
// ways: over HTTP, through in-process Service.Submit, and decomposed into
// direct calls.  sort256 is the serve_small request (server-generated
// input); the two large shapes carry explicit payloads as in serve_mixed.
type tracedClass struct {
	tag, kernel   string
	n, shortN     int64
	explicit      bool
	reps, shortRe int
}

var tracedClasses = []tracedClass{
	{"sort256", "sort", smallN, smallN, false, 1000, 20},
	{"sort64k", "sort", 65536, 2048, true, 60, 5},
	{"matmul128", "matmul", 128, 16, true, 60, 5},
}

// replay runs one traced class and reports its serve/registry/rt/algos
// metrics; differences of medians give the self times no single call shows.
func replay(res *result, f *fixture, pool *rt.Pool, tc tracedClass, seed uint64, short bool, tr *tracer) {
	k := mustInvocable(tc.kernel)
	n, reps := tc.n, tc.reps
	if short {
		n, reps = tc.shortN, tc.shortRe
	}
	r := rng(seed ^ 0x7ace)
	parts := map[string][]int64{}
	keep := func(name string, t0, t1 time.Time) { parts[name] = append(parts[name], t1.Sub(t0).Nanoseconds()) }
	var buf bytes.Buffer
	for i := 0; i < reps; i++ {
		s := r.next() >> 1
		in, err := k.Gen(n, s)
		if err != nil {
			res.Attempted, res.Failed = res.Attempted+1, res.Failed+1
			continue
		}
		body := fmt.Appendf(nil, `{"kernel":%q,"n":%d,"seed":%d}`, k.Name, n, s)
		if tc.explicit {
			body, _ = json.Marshal(serve.Request{Kernel: k.Name, Input: in}) // a []int64 payload cannot fail to marshal
		}

		// 1. Over HTTP, verified client-side outside the span.
		t0 := time.Now()
		status, err := f.post("/invoke", body, &buf)
		t1 := time.Now()
		tr.root("serve", "http/"+tc.tag, t0, t1)
		keep("http", t0, t1)
		res.Attempted++
		if err != nil || status != http.StatusOK || !(check{kernel: k, in: in, body: buf.Bytes()}).ok() {
			res.Failed++
		}

		// 2. Decomposed into direct calls, as children of one root span.
		root := tr.id()
		span := func(layer, name string, fn func()) {
			a := time.Now()
			fn()
			b := time.Now()
			tr.rec(root, tr.id(), root, layer, name+"/"+tc.tag, a, b)
			keep(name, a, b)
		}
		d0 := time.Now()
		good := true
		var req serve.Request
		span("serve", "json_decode", func() { good = json.Unmarshal(body, &req) == nil })
		var gen []int64
		span("registry", "gen", func() { gen, _ = k.Gen(n, s) }) // cannot fail: (n, s) generated in above
		span("registry", "validate", func() { good = good && k.Validate(gen) == nil })
		out := make([]int64, k.OutLen(gen))
		var k0, k1 time.Time
		p0 := time.Now()
		fj.RunReal(pool, func(fc *fj.Ctx) {
			k0 = time.Now()
			k.Run(fc, gen, out)
			k1 = time.Now()
		})
		p1 := time.Now()
		run := tr.id()
		tr.rec(root, run, root, "rt", "pool_run/"+tc.tag, p0, p1)
		tr.rec(root, tr.id(), run, "algos", "kernel/"+tc.tag, k0, k1)
		keep("pool_run", p0, p1)
		keep("kernel", k0, k1)
		parts["spinup"] = append(parts["spinup"], p1.Sub(p0).Nanoseconds()-k1.Sub(k0).Nanoseconds())
		span("registry", "verify", func() { good = good && k.Verify(gen, out) })
		span("serve", "json_encode", func() {
			_, err := json.Marshal(serve.Response{Kernel: k.Name, N: int64(len(out)), Output: out, Batched: 1})
			good = good && err == nil
		})
		tr.rec(root, root, 0, "benchmark", "decomposed/"+tc.tag, d0, time.Now())
		res.Attempted++
		if !good {
			res.Failed++
		}

		// 3. In process, through Submit, with the request decoded above.
		t0 = time.Now()
		resp, err := f.svc.Submit(context.Background(), req)
		t1 = time.Now()
		tr.root("serve", "submit/"+tc.tag, t0, t1)
		keep("submit", t0, t1)
		res.Attempted++
		if err != nil || !k.Verify(in, resp.Output) {
			res.Failed++
		}
	}
	med := func(name string) float64 { return us(quantile(parts[name], 0.50)) }
	genOnPath := 0.0
	if !tc.explicit {
		genOnPath = med("gen") // explicit payloads bypass Gen on the server
	}
	add := func(layer, name string, v float64) { res.add(layer+"."+tc.tag+"."+name, v, "us", reps) }
	add("serve", "http_us", med("http"))
	add("serve", "submit_us", med("submit"))
	add("serve", "transport_us", med("http")-med("submit"))
	add("serve", "json_decode_us", med("json_decode"))
	add("serve", "json_encode_us", med("json_encode"))
	add("serve", "dispatch_us", med("submit")-genOnPath-med("validate")-med("pool_run"))
	add("registry", "gen_us", med("gen"))
	add("registry", "verify_us", med("verify"))
	add("rt", "pool_run_us", med("pool_run"))
	add("rt", "spinup_us", med("spinup"))
	add("algos", "kernel_us", med("kernel"))
}

// rtMicro times the runtime's fixed costs: a Run of an empty root at
// p = procs, a chain of no-op Fork+Join at p = 1, and a hot-class arena
// Get/Put cycle.
func rtMicro(res *result, short bool) {
	reps, chain := 2000, 200000
	if short {
		reps, chain = 50, 2000
	}
	pool := rt.NewPool(0, rt.Random)
	res.add("rt.run_empty_us", us(quantile(timesOf(reps, func() { pool.Run(func(*rt.Ctx) {}) }), 0.50)), "us", reps)

	var forkJoin time.Duration
	rt.NewPool(1, rt.Random).Run(func(c *rt.Ctx) {
		noop := func(*rt.Ctx) {}
		t0 := time.Now()
		for i := 0; i < chain; i++ {
			h := c.Fork(noop)
			c.Join(h)
		}
		forkJoin = time.Since(t0)
	})
	res.add("rt.fork_join_ns", float64(forkJoin.Nanoseconds())/float64(chain), "ns", chain)

	sh := arena.NewShard()
	sh.I64.Put(sh.I64.Get(1024))
	t0 := time.Now()
	for i := 0; i < chain; i++ {
		sh.I64.Put(sh.I64.Get(1024))
	}
	res.add("arena.getput_ns", float64(time.Since(t0).Nanoseconds())/float64(chain), "ns", chain)
}

// msum builds a minimal M-Sum tree, so the engine micro-measurement times
// core + sched + machine, not the scan package.
func msum(a mem.Array, lo, hi int64, out mem.Addr) *core.Node {
	if hi-lo == 1 {
		return core.Leaf(1, func(c *core.Ctx) { c.W(out, c.R(a.Addr(lo))) })
	}
	mid := lo + (hi-lo)/2
	return &core.Node{
		Size:   hi - lo,
		Locals: 2,
		Fork: func(c *core.Ctx) (*core.Node, *core.Node) {
			return msum(a, lo, mid, c.Local(0)), msum(a, mid, hi, c.Local(1))
		},
		Join: func(c *core.Ctx) { c.W(out, c.R(c.Local(0))+c.R(c.Local(1))) },
	}
}

// simMicro times the simulator's inner loops on machine.New and
// cache.NewSet, and counts the engine's allocations on M-Sum n = 4096,
// p = 8.
func simMicro(res *result, short bool) {
	loops := 2000000
	if short {
		loops = 20000
	}
	perOp := func(fn func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < loops; i++ {
			fn(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(loops)
	}
	m := machine.New(machine.Default(1))
	hit := mem.NewArray(m.Space, 8)
	p := m.Procs[0]
	p.Write(hit.Addr(0), 42)
	res.add("machine.read_hit_ns", perOp(func(int) { p.Read(hit.Addr(0)) }), "ns", loops)
	const streamLen = 1 << 16
	stream := mem.NewArray(m.Space, streamLen)
	res.add("machine.read_stream_ns", perOp(func(i int) { p.Read(stream.Addr(int64(i) & (streamLen - 1))) }), "ns", loops)
	set := cache.NewSet(64)
	set.Insert(1)
	res.add("cache.touch_ns", perOp(func(int) { set.Touch(1) }), "ns", loops)
	evict := cache.NewSet(64)
	res.add("cache.insert_evict_ns", perOp(func(i int) { evict.Insert(int64(i)) }), "ns", loops)

	var mallocs []int64
	for i := 0; i < 3; i++ {
		before := markMem()
		m8 := machine.New(machine.Default(8))
		a := mem.NewArray(m8.Space, 4096)
		a.Fill(1)
		core.NewEngine(m8, sched.NewPWS(), core.Options{}).Run(msum(a, 0, a.Len(), m8.Space.Alloc(1)))
		mallocs = append(mallocs, int64(markMem().mallocs-before.mallocs))
	}
	res.add("core.engine_allocs_per_run", float64(quantile(mallocs, 0.50)), "count", len(mallocs))
}

// nodeTwins pairs each fj kernel with the hand-built core.Node kernel of
// the same algorithm; gather and spms have none.
var nodeTwins = map[string]string{
	"matmul": "Depth-n-MM", "strassen": "Strassen (BI)", "sortx": "Sort (HBP-MS)",
	"scan": "Scan(PS)", "fft": "FFT", "transpose": "MT (BI)", "listrank": "LR",
}

// fjSimCost runs every fj kernel's sim lowering at its largest sim size
// (its smallest at smoke scale) and the hand-built twins at matching sizes:
// the price list for moving EXP14 onto fj sources.
func fjSimCost(res *result, seed uint64, short bool) error {
	spec := bench.DefaultSpec(8)
	spec.Seed = seed
	var fjNS, fjWork, nodeNS, nodeWork int64
	fjN, nodeN := 0, 0
	timeRun := func(a bench.Algo, n int64) (int64, int64) {
		t0 := time.Now()
		r := bench.Run(a, n, spec)
		return time.Since(t0).Nanoseconds(), r.Work
	}
	for _, f := range registry.FJKernels() {
		k, ok := registry.Find(f.Name, registry.Sim)
		if !ok || k.FJ == nil {
			return fmt.Errorf("fj kernel %s has no sim lowering", f.Name)
		}
		n := k.Sim.Sizes[len(k.Sim.Sizes)-1]
		if short {
			n = k.Sim.Sizes[0]
		}
		ns, work := timeRun(*k.Sim, n)
		fjNS, fjWork, fjN = fjNS+ns, fjWork+work, fjN+1
		if twin, ok := nodeTwins[f.Name]; ok {
			a, ok := bench.FindAlgo(twin)
			if !ok {
				return fmt.Errorf("hand-built kernel %q not in the sim catalog", twin)
			}
			ns, work := timeRun(a, n)
			nodeNS, nodeWork, nodeN = nodeNS+ns, nodeWork+work, nodeN+1
		}
	}
	res.add("fj.sim.ns_per_op", float64(fjNS)/float64(fjWork), "ns", fjN)
	res.add("core.node.ns_per_op", float64(nodeNS)/float64(nodeWork), "ns", nodeN)
	return nil
}

// kernelLayers reports the per-kernel and runtime metrics of a traced
// kernels_direct sweep — run times as the workload reads them, off the
// fastest run — and returns the smallest p = procs time.
func kernelLayers(res *result, ks *kernelSet) float64 {
	var speedup []float64
	smallest := 0.0
	runsPN := 0
	for _, c := range ks.cases {
		p1, pn := c.fastMS(0), c.fastMS(1)
		runsPN += len(c.ns[1])
		speedup = append(speedup, p1/pn)
		if smallest == 0 || pn < smallest {
			smallest = pn
		}
		before := markMem()
		const allocRuns = 5
		for i := 0; i < allocRuns; i++ {
			c.runOnce(ks.pools[1], nil)
		}
		mallocs := float64(markMem().mallocs-before.mallocs) / allocRuns
		stock := fastest(timesOf(7, c.stock.run), 0) / 1e6
		tag := "algos." + c.k.Name + "."
		res.add(tag+"p1_ms", p1, "ms", len(c.ns[0]))
		res.add(tag+"pn_ms", pn, "ms", len(c.ns[1]))
		res.add(tag+"stock_ratio", stock/pn, "ratio", 7)
		res.add(tag+"allocs_per_run", mallocs, "count", allocRuns)
	}
	ratio := 0.0
	if ks.attempts > 0 {
		ratio = float64(ks.steals) / float64(ks.attempts)
	}
	res.add("rt.steals_per_run", float64(ks.steals)/float64(runsPN), "count", runsPN)
	res.add("rt.steal_success_ratio", ratio, "ratio", runsPN)
	res.add("rt.tasks_per_run", float64(ks.executed)/float64(runsPN), "count", runsPN)
	res.add("rt.speedup_geomean", geomean(speedup), "ratio", len(speedup))
	return smallest
}

// simLayers reports host time per simulated operation by kernel, by
// simulated core count and by scheduler, from the grid's per-cell spans.
func simLayers(res *result, seed uint64, run simRun, short bool) error {
	for _, c := range run.cells {
		if !slices.Contains(exp14Slugs, c.slug) {
			return fmt.Errorf("EXP14 gained kernel %q, which the per-layer metrics do not name", c.slug)
		}
	}
	for _, s := range exp14Slugs {
		v, n := run.nsPerOp(func(c cellRun) bool { return c.slug == s })
		if n == 0 && !short {
			return fmt.Errorf("EXP14 lost kernel %q, which the per-layer metrics name", s)
		}
		res.add("core."+s+".ns_per_op", v, "ns", n)
	}
	for _, p := range []int{1, 2, 8} {
		v, n := run.nsPerOp(func(c cellRun) bool { return c.p == p })
		res.add(fmt.Sprintf("core.p%d.ns_per_op", p), v, "ns", n)
	}
	for _, s := range []string{"pws", "rws"} {
		v, n := run.nsPerOp(func(c cellRun) bool { return c.p > 1 && c.sched == s })
		res.add("sched."+s+".ns_per_op", v, "ns", n)
	}
	res.add("bench.grid_s", float64(run.gridNS)/1e9, "s", len(run.cells))
	res.add("model.out_of_envelope_rows", float64(len(run.rows)-run.inEnv), "count", len(run.rows))
	match := 0.0
	got, err := run.digest()
	if err != nil {
		return err
	}
	want, recorded := goldenDigest(seed)
	switch {
	case short:
		res.note("core.stats_digest_match: not compared at smoke scale")
	case !recorded:
		res.note("core.stats_digest_match: no golden recorded for seed %d (digest %s)", seed, got)
	case got == want:
		match = 1
	default:
		res.note("core.stats_digest_match: digest %s differs from golden %s", got, want)
	}
	res.add("core.stats_digest_match", match, "count", len(run.rows))
	return nil
}

// exp14Slugs are the EXP14 kernels in grid order, as named in the
// core.<slug>.ns_per_op metrics.
var exp14Slugs = []string{"scan_m_sum", "scan_ps", "mt_bi", "rm_to_bi", "direct_bi_rm",
	"bi_rm_gap_rm", "strassen_bi", "depth_n_mm", "fft", "spms"}

// overheadCells is how many grid cells the overhead measurement pairs up.
const overheadCells = 24

// overhead is (traced − untraced) ÷ untraced, measured in pairs: every
// kernel at p = procs, and each of the grid's first cells, runs once with
// the tracer and once without, in turn, so both sides see the same machine.
// The larger of the kernel-geomean share and the grid share is reported.
func overhead(ks *kernelSet, sim simReady, seconds float64, tr *tracer) float64 {
	on, off := make([][]int64, len(ks.cases)), make([][]int64, len(ks.cases))
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round < kernelMinRounds || time.Now().Before(deadline); round++ {
		for i, c := range ks.cases {
			on[i] = append(on[i], c.runOnce(ks.pools[1], tr))
			off[i] = append(off[i], c.runOnce(ks.pools[1], nil))
		}
	}
	var traced, plain []float64
	for i := range on {
		traced = append(traced, float64(quantile(on[i], 0.50)))
		plain = append(plain, float64(quantile(off[i], 0.50)))
	}
	kernels := geomean(traced)/geomean(plain) - 1

	var onNS, offNS time.Duration
	grid, start := tr.id(), time.Now()
	for _, c := range sim.cells[:min(len(sim.cells), overheadCells)] {
		t0 := time.Now()
		runCell(c, "cell", grid, tr)
		t1 := time.Now()
		runCell(c, "cell", 0, nil)
		onNS, offNS = onNS+t1.Sub(t0), offNS+time.Since(t1)
	}
	tr.rec(grid, grid, 0, "bench", "grid/overhead-pairs", start, time.Now())
	return max(kernels, float64(onNS)/float64(offNS)-1)
}

// runLayers is the traced pass over all four workloads and every layer.
func runLayers(seed uint64, sc scale, tr *tracer) (result, error) {
	res := result{Workload: "layers"}
	sc.setups = 1
	load := sc
	load.seconds = sc.seconds / 2

	f, err := startFixture()
	if err != nil {
		return res, err
	}
	pool := rt.NewPool(0, rt.Random)
	for _, tc := range tracedClasses {
		replay(&res, f, pool, tc, seed, sc.short, tr)
	}
	f.stop()

	small, ps, err := serveSmall(seed, load, tr)
	if err != nil {
		return res, err
	}
	ps.addTo(&res, "small", small.Attempted)
	mixed, run, ps, err := serveMixed(seed, load, tr)
	if err != nil {
		return res, err
	}
	ps.addTo(&res, "mixed", mixed.Attempted)
	run.addSweep(&res)

	rtMicro(&res, sc.short)
	kern, ks, err := kernelsDirect(seed, load, tr)
	if err != nil {
		return res, err
	}
	smallestPN := kernelLayers(&res, ks)

	grid, gridRun, err := simGrid(seed, sc, tr)
	if err != nil {
		return res, err
	}
	if err := simLayers(&res, seed, gridRun, sc.short); err != nil {
		return res, err
	}
	simMicro(&res, sc.short)
	if err := fjSimCost(&res, seed, sc.short); err != nil {
		return res, err
	}
	res.add("trace.overhead_share", overhead(ks, gridRun.ready, load.seconds/4, tr), "ratio", 2)

	for _, r := range []result{small, mixed, kern, grid} {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	// Workload separation: the kernel does little on serve_small, spin-up
	// does little on kernels_direct, and sim_grid never touches rt at all.
	res.separation("algos.sort256.kernel_us", res.value("serve.sort256.http_us"), "serve.sort256.http_us", 0.10)
	res.separation("rt.run_empty_us", 1000*smallestPN, "the smallest algos.K.pn_ms in us", 0.02)
	return res, nil
}
