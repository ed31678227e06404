package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/serve"
)

// fixture is the service under test: serve.New(serve.Config{}) behind an
// http.Server on a loopback port inside this process — what cmd/hbpserve
// does minus the flag glue — with load sent over real TCP with keep-alive.
type fixture struct {
	svc *serve.Service
	srv *http.Server
	url string
	cli *http.Client
}

func startFixture() (*fixture, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fixture{svc: serve.New(serve.Config{}), url: "http://" + ln.Addr().String()}
	f.srv = &http.Server{Handler: f.svc.Handler()}
	go f.srv.Serve(ln) // returns ErrServerClosed once stop shuts it down
	f.cli = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        8 * procs,
		MaxIdleConnsPerHost: 8 * procs,
		DisableCompression:  true,
	}}
	return f, nil
}

func (f *fixture) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.cli.CloseIdleConnections()
	_ = f.srv.Shutdown(ctx) // a timeout only means a connection lingered; Close below ends the service either way
	f.svc.Close()
}

// post sends body and reads the whole response into buf.
func (f *fixture) post(path string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := f.cli.Post(f.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	return resp.StatusCode, err
}

// check is one response kept for client-side verification after the timed
// interval: the kernel's own serial verifier against the payload, which is
// either the pre-generated one or regenerated from (n, seed).  The request
// never sets verify:true, which would re-sort on the server.
type check struct {
	kernel registry.Invocable
	in     []int64
	n      int64
	seed   uint64
	body   []byte
}

func (c check) ok() bool {
	var resp serve.Response
	if json.Unmarshal(c.body, &resp) != nil {
		return false
	}
	in := c.in
	if in == nil {
		var err error
		if in, err = c.kernel.Gen(c.n, c.seed); err != nil {
			return false
		}
	}
	return c.kernel.Verify(in, resp.Output)
}

// countFailed verifies every kept response and returns how many failed.
func countFailed(checks []check) int {
	bad := 0
	for _, c := range checks {
		if !c.ok() {
			bad++
		}
	}
	return bad
}

func mustInvocable(name string) registry.Invocable {
	k, ok := registry.FindInvocable(name)
	if !ok {
		panic("benchmark: no invocable kernel " + name)
	}
	return k
}

const (
	smallN      = 256 // elements of a small request
	smallWarmup = 200 // verified warm-up requests, part of set-up
	checkOneIn  = 16  // share of timed responses kept for verification
)

// caller is the closed-loop client's record of one phase.
type caller struct {
	lat       []int64 // round trip of every OK response, ns
	heavy     []int64 // the sort half of lat
	attempted int
	failed    int
	checks    []check
}

// closedLoop posts /invoke requests back to back from one caller,
// alternating sort and scan on server-generated input, while more(i) holds.
// checkAll keeps every response for verification (the warm-up); otherwise a
// seeded 1 in 16 is kept.
//
// One caller, not P: P callers back to back saturate both CPUs of the
// reference box, and every number then tracks the host's spare capacity
// (identical runs differed by 15–26%); P callers with think time let the
// adaptive flush deadline chase the arrival gaps, and the median round trip
// flipped between 0.18 and 0.58 ms.  A lone caller is the steady regime —
// and exactly the request the traced pass decomposes.
func closedLoop(f *fixture, r rng, capacity int, more func(i int) bool, checkAll bool, tr *tracer) *caller {
	c := &caller{lat: make([]int64, 0, capacity), heavy: make([]int64, 0, capacity/2)}
	kernels := [2]registry.Invocable{mustInvocable("sort"), mustInvocable("scan")}
	var body []byte
	var buf bytes.Buffer
	for i := 0; more(i); i++ {
		k := kernels[i%2]
		seed := r.next() >> 1
		body = fmt.Appendf(body[:0], `{"kernel":%q,"n":%d,"seed":%d}`, k.Name, smallN, seed)
		keep := checkAll || r.intn(checkOneIn) == 0
		c.attempted++
		t0 := time.Now()
		status, err := f.post("/invoke", body, &buf)
		t1 := time.Now()
		if err != nil || status != http.StatusOK {
			c.failed++
			continue
		}
		tr.root("load", "invoke/"+k.Name, t0, t1)
		c.lat = append(c.lat, t1.Sub(t0).Nanoseconds())
		if i%2 == 0 {
			c.heavy = append(c.heavy, t1.Sub(t0).Nanoseconds())
		}
		if keep {
			c.checks = append(c.checks, check{kernel: k, n: smallN, seed: seed, body: bytes.Clone(buf.Bytes())})
		}
	}
	return c
}

type smallReady struct {
	f                 *fixture
	attempted, failed int
}

// setupSmall starts the service and warms it with verified requests; a
// failed warm-up check is carried into the run's failure count.
func setupSmall(seed uint64) (smallReady, error) {
	f, err := startFixture()
	if err != nil {
		return smallReady{}, err
	}
	warm := closedLoop(f, rng(seed^0xfeed), smallWarmup, func(i int) bool { return i < smallWarmup }, true, nil)
	return smallReady{f, warm.attempted, warm.failed + countFailed(warm.checks)}, nil
}

// serveSmall is the closed-loop workload: one caller, POST /invoke,
// alternating sort and scan at n = 256 on server-generated input.  The
// kernel is ~2% of the round trip, so this is where request-path overhead —
// decode, admission, batch-assembly wait, Pool.Run spin-up, encode — shows.
func serveSmall(seed uint64, sc scale, tr *tracer) (result, probeStats, error) {
	res := result{Workload: "serve_small"}
	rd, setupS, err := repeatSetup(sc.setupReps(setupReps),
		func() (smallReady, error) { return setupSmall(seed) },
		func(r smallReady) { r.f.stop() })
	if err != nil {
		return res, probeStats{}, err
	}
	f := rd.f
	defer f.stop()

	probe := startProbe(f.svc, tr)
	mem := markMem()
	start := time.Now()
	deadline := start.Add(time.Duration(sc.seconds * float64(time.Second)))
	run := closedLoop(f, rng(seed), int(sc.seconds*4000)+1024,
		func(int) bool { return time.Now().Before(deadline) }, false, tr)
	elapsed := time.Since(start)
	kb := mem.kbPerOp(len(run.lat))
	ps := probe.stop()

	res.Attempted = rd.attempted + run.attempted
	res.Failed = rd.failed + run.failed + countFailed(run.checks)
	n := len(run.lat)
	if n == 0 {
		return res, ps, fmt.Errorf("no request succeeded")
	}
	res.add("setup_s", setupS, "s", sc.setupReps(setupReps))
	res.add("ops_per_s", float64(n)/elapsed.Seconds(), "1/s", n)
	res.add("lat_typ_ms", ms(quantile(run.lat, 0.50)), "ms", n)
	res.add("lat_tail_ms", ms(quantile(run.lat, smallTailQ)), "ms", n)
	res.add("heavy_ms", ms(quantile(run.heavy, 0.50)), "ms", len(run.heavy))
	res.add("alloc_kb_per_op", kb, "KB", n)
	res.add("ok_share", 1-float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	return res, ps, nil
}

func runServeSmall(seed uint64, sc scale, tr *tracer) (result, error) {
	r, _, err := serveSmall(seed, sc, tr)
	return r, err
}

// probeStats is what the traced pass reads off the service under load:
// Metrics().Snapshot() deltas over the timed phase and the queue depth
// sampled in-process every 10 ms.
type probeStats struct {
	batchWidthMean float64
	maxBatch       float64
	queueDepthMax  float64
	rejectedShare  float64
	svcP50us       float64
}

type probe struct {
	svc    *serve.Service
	before serve.Snapshot
	quit   chan struct{}
	done   chan int
}

// startProbe snapshots the counters and starts the depth sampler.  Only the
// traced pass probes: with no tracer it returns nil, and a nil probe stops
// to zero stats.
func startProbe(svc *serve.Service, tr *tracer) *probe {
	if tr == nil {
		return nil
	}
	p := &probe{svc: svc, before: svc.Metrics().Snapshot(), quit: make(chan struct{}), done: make(chan int, 1)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		depth := 0
		for {
			select {
			case <-p.quit:
				p.done <- depth
				return
			case <-tick.C:
				depth = max(depth, p.svc.Metrics().Snapshot().QueueDepth)
			}
		}
	}()
	return p
}

func (p *probe) stop() probeStats {
	var ps probeStats
	if p == nil {
		return ps
	}
	close(p.quit)
	ps.queueDepthMax = float64(<-p.done)
	after := p.svc.Metrics().Snapshot()
	if d := after.Batches - p.before.Batches; d > 0 {
		ps.batchWidthMean = float64(after.BatchedRequests-p.before.BatchedRequests) / float64(d)
	}
	ps.maxBatch = float64(after.MaxBatch)
	rej := after.Rejected - p.before.Rejected
	if tot := rej + after.Accepted - p.before.Accepted; tot > 0 {
		ps.rejectedShare = float64(rej) / float64(tot)
	}
	ps.svcP50us = us(after.LatencyP50NS)
	return ps
}

// addTo reports the probe under serve.<w>.*.
func (ps probeStats) addTo(r *result, w string, n int) {
	r.add("serve."+w+".batch_width_mean", ps.batchWidthMean, "count", n)
	r.add("serve."+w+".max_batch", ps.maxBatch, "count", n)
	r.add("serve."+w+".queue_depth_max", ps.queueDepthMax, "count", n)
	r.add("serve."+w+".rejected_share", ps.rejectedShare, "ratio", n)
	r.add("serve."+w+".svc_p50_us", ps.svcP50us, "us", n)
}
