package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/serve"
)

// The open-loop workload.  Arrivals are a seeded Poisson process in three
// rate steps, with class and payload dealt from the same stream (see
// buildSchedule).  Every payload is explicit: generated with Invocable.Gen and
// marshalled during set-up, so the server decodes real bodies and never
// runs Gen.  Latency is timed from the moment a request was due, so a
// stall charges every request that queued behind it.

// mixedRates are the arrival rates of the three steps, per second.  The
// service sustains ten times the top step; the rates are this low because
// above ~150/s on the 2-vCPU reference box identical schedules gave tail
// latencies 75–100% apart (README.md, "Sizing").
var mixedRates = [3]int{25, 50, 100}

const (
	classSmall = iota
	classLarge
	classBatch
	batchWindow = 8 // JSONL lines of one /batch request
)

// variant is one pre-marshalled request: an /invoke body, or a /batch
// window of batchWindow lines, with the payloads its responses are
// verified against.
type variant struct {
	class   int
	name    string
	path    string
	body    []byte
	kernels []registry.Invocable
	ins     [][]int64
}

type arrival struct {
	due  time.Duration // offset from the start of the schedule
	step int
	v    *variant
	keep bool // seeded 1-in-16 sample kept for verification
}

// outcome is written by exactly one worker, the one that served arrival i.
type outcome struct {
	first, last int64 // ns from the due time to the first and the last response line
	failed      bool
	body        []byte
}

func marshalRequest(k registry.Invocable, n int64, seed uint64) ([]byte, []int64, error) {
	in, err := k.Gen(n, seed)
	if err != nil {
		return nil, nil, err
	}
	b, err := json.Marshal(serve.Request{Kernel: k.Name, Input: in})
	return b, in, err
}

// buildVariants generates and marshals the payload pool.
func buildVariants(seed uint64, short bool) (pool [3][]*variant, err error) {
	type spec struct {
		kernel string
		n      int64
	}
	small := []spec{{"scan", smallN}, {"sort", smallN}, {"gather", smallN}}
	large := []spec{{"sort", 65536}, {"matmul", 128}, {"fft", 16384}}
	if short {
		large = []spec{{"sort", 2048}, {"matmul", 16}, {"fft", 512}}
	}
	r := rng(seed ^ 0xa11ce)
	one := func(class int, s spec) error {
		k := mustInvocable(s.kernel)
		b, in, err := marshalRequest(k, s.n, r.next()>>1)
		if err != nil {
			return err
		}
		pool[class] = append(pool[class], &variant{class, fmt.Sprintf("invoke/%s%d", s.kernel, s.n),
			"/invoke", b, []registry.Invocable{k}, [][]int64{in}})
		return nil
	}
	for i := 0; i < 16; i++ {
		for _, s := range small {
			if err = one(classSmall, s); err != nil {
				return
			}
		}
	}
	for i := 0; i < 2; i++ {
		for _, s := range large {
			if err = one(classLarge, s); err != nil {
				return
			}
		}
	}
	for i := 0; i < 8; i++ {
		v := &variant{class: classBatch, name: "batch/small8", path: "/batch"}
		for j := 0; j < batchWindow; j++ {
			s := small[r.intn(len(small))]
			k := mustInvocable(s.kernel)
			b, in, e := marshalRequest(k, s.n, r.next()>>1)
			if e != nil {
				return pool, e
			}
			v.body = append(append(v.body, b...), '\n')
			v.kernels = append(v.kernels, k)
			v.ins = append(v.ins, in)
		}
		pool[classBatch] = append(pool[classBatch], v)
	}
	return
}

// steps lays the rate steps over a run: the two lower steps are ramps, the
// top step takes the rest, because only the top step feeds the end-to-end
// metrics.  The untraced run keeps the ramps to a twentieth of the run
// each; the traced run, whose rate sweep reports every step, gives them a
// sixth each.
type steps struct{ ramp, total time.Duration }

func stepsOf(seconds float64, traced bool) steps {
	total := time.Duration(seconds * float64(time.Second))
	if traced {
		return steps{total / 6, total}
	}
	return steps{total / 20, total}
}

func (s steps) begin(step int) time.Duration { return time.Duration(step) * s.ramp }

func (s steps) end(step int) time.Duration {
	if step == len(mixedRates)-1 {
		return s.total
	}
	return s.begin(step + 1)
}

// dealer hands out 0..n-1 in shuffled rounds, every value once a round, so
// a seed changes the order of what is sent but not how much of each.
type dealer struct {
	perm []int
	at   int
}

func newDealer(n int) *dealer {
	d := &dealer{perm: make([]int, n)}
	for i := range d.perm {
		d.perm[i] = i
	}
	return d
}

func (d *dealer) next(r *rng) int {
	if d.at == 0 {
		for i := len(d.perm) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			d.perm[i], d.perm[j] = d.perm[j], d.perm[i]
		}
	}
	v := d.perm[d.at]
	d.at = (d.at + 1) % len(d.perm)
	return v
}

// buildSchedule draws each step's arrivals as a Poisson process conditioned
// on its count: rate × length due times uniform over the step, sorted —
// exponential-looking gaps, but as many requests whatever the seed.  Classes
// are dealt in shuffled decks of ten (eight small, one large, one /batch
// window) and payloads in shuffled rounds of their class's pool.  Left to
// independent draws, the share of large requests alone moved
// alloc_kb_per_op by 11% between seeds.
func buildSchedule(seed uint64, st steps, short bool, pool [3][]*variant) []arrival {
	r := rng(seed ^ 0x5ced)
	deck := newDealer(10)
	var payload [3]*dealer
	for class := range payload {
		payload[class] = newDealer(len(pool[class]))
	}
	var out []arrival
	for step, rate := range mixedRates {
		begin, end := st.begin(step), st.end(step)
		if short {
			rate *= 8 // so every class still appears in a step a fraction of a second long
		}
		due := make([]time.Duration, int(float64(rate)*(end-begin).Seconds()+0.5))
		for i := range due {
			due[i] = begin + time.Duration(r.float()*float64(end-begin))
		}
		slices.Sort(due)
		for _, at := range due {
			class := classSmall
			switch deck.next(&r) {
			case 8:
				class = classLarge
			case 9:
				class = classBatch
			}
			v := pool[class][payload[class].next(&r)]
			out = append(out, arrival{at, step, v, r.intn(checkOneIn) == 0})
		}
	}
	return out
}

// serveOne sends one arrival and fills its outcome.  A 429 or any other
// non-200 is a failure and is not retried: a retry would hide the miss.
func serveOne(f *fixture, a *arrival, due time.Time, keep bool, o *outcome, buf *bytes.Buffer) {
	resp, err := f.cli.Post(f.url+a.v.path, "application/json", bytes.NewReader(a.v.body))
	if err != nil {
		o.failed = true
		return
	}
	defer resp.Body.Close()
	buf.Reset()
	lines := 0
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		line, err := br.ReadSlice('\n')
		for err == bufio.ErrBufferFull {
			buf.Write(line)
			line, err = br.ReadSlice('\n')
		}
		buf.Write(line)
		if len(line) > 0 && lines == 0 {
			o.first = time.Since(due).Nanoseconds()
		}
		if err == nil {
			lines++
			continue
		}
		if err != io.EOF {
			o.failed = true
		}
		break
	}
	o.last = time.Since(due).Nanoseconds()
	if resp.StatusCode != http.StatusOK || lines != len(a.v.kernels) || bytes.Contains(buf.Bytes(), []byte(`"error"`)) {
		o.failed = true
	}
	if keep && !o.failed {
		o.body = bytes.Clone(buf.Bytes())
	}
}

// verifyOutcome checks a kept response body, line by line, against the
// variant's payloads; /batch lines come back in completion order and are
// matched by their index.
func verifyOutcome(v *variant, body []byte) bool {
	seen := 0
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var resp serve.Response
		if json.Unmarshal(line, &resp) != nil || resp.Index < 0 || resp.Index >= len(v.ins) {
			return false
		}
		if !v.kernels[resp.Index].Verify(v.ins[resp.Index], resp.Output) {
			return false
		}
		seen++
	}
	return seen == len(v.ins)
}

// mixedRun is the generator's record of one schedule.
type mixedRun struct {
	arrivals    []arrival
	outcomes    []outcome
	late        []int64       // ns each dispatch ran behind its due time
	inflightMax int64         // most requests dispatched and not yet answered
	halfMean    [3][2]float64 // mean in-flight over each half of each step
	elapsed     time.Duration
}

// drive runs the schedule: one dispatcher releases each arrival at its due
// time to 4·procs workers, each holding one connection.
func drive(f *fixture, arrivals []arrival, st steps, keepAll bool, tr *tracer) *mixedRun {
	run := &mixedRun{arrivals: arrivals, outcomes: make([]outcome, len(arrivals)), late: make([]int64, len(arrivals))}
	// Sized to the number of sends: the dispatcher never blocks, so its
	// lateness is its own and a backlog shows as in-flight growth.
	queue := make(chan int, len(arrivals))
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 4*procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				a := &arrivals[i]
				due := start.Add(a.due)
				serveOne(f, a, due, keepAll || a.keep, &run.outcomes[i], &buf)
				completed.Add(1)
				if !run.outcomes[i].failed {
					tr.root("load", a.v.name, due, due.Add(time.Duration(run.outcomes[i].last)))
				}
			}
		}()
	}
	var sum [3][2]float64
	var cnt [3][2]int
	for i := range arrivals {
		a := &arrivals[i]
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		run.late[i] = max(time.Since(start.Add(a.due)).Nanoseconds(), 0)
		inflight := int64(i+1) - completed.Load()
		run.inflightMax = max(run.inflightMax, inflight)
		half := 0
		if begin := st.begin(a.step); a.due-begin >= (st.end(a.step)-begin)/2 {
			half = 1
		}
		sum[a.step][half] += float64(inflight)
		cnt[a.step][half]++
		queue <- i
	}
	close(queue)
	wg.Wait()
	run.elapsed = time.Since(start)
	for s := range sum {
		for h := range sum[s] {
			if cnt[s][h] > 0 {
				run.halfMean[s][h] = sum[s][h] / float64(cnt[s][h])
			}
		}
	}
	return run
}

// failures verifies the kept bodies and returns how many operations failed
// in transit or in verification.
func (m *mixedRun) failures() (failed int) {
	for i := range m.outcomes {
		o := &m.outcomes[i]
		if !o.failed && o.body != nil && !verifyOutcome(m.arrivals[i].v, o.body) {
			o.failed = true
		}
		if o.failed {
			failed++
		}
	}
	return
}

// lat collects the due-time latencies (to the first response line when
// first is set, else to the last) of one class at one step from the OK
// outcomes.
func (m *mixedRun) lat(class, step int, first bool) []int64 {
	var s []int64
	for i := range m.outcomes {
		a, o := &m.arrivals[i], &m.outcomes[i]
		if a.v.class != class || a.step != step || o.failed {
			continue
		}
		ns := o.last
		if first {
			ns = o.first
		}
		s = append(s, ns)
	}
	return s
}

// timed returns the due-time latencies of one class at one step with the
// offset of each due time from begin, for windows.
func (m *mixedRun) timed(class, step int, begin time.Duration) (at, lat []int64) {
	for i := range m.outcomes {
		a, o := &m.arrivals[i], &m.outcomes[i]
		if a.v.class == class && a.step == step && !o.failed {
			at, lat = append(at, int64(a.due-begin)), append(lat, o.last)
		}
	}
	return
}

// undisturbed is what a request of the class costs at the step when
// nothing is in its way: per request shape (the large class holds three,
// 2 to 15 ms apart) the mean of the fastest mixedFastShare of its due-time
// latencies, then the geometric mean over the shapes, in ms.  The shapes
// are too few per second for windows.
func (m *mixedRun) undisturbed(class, step int) (float64, int) {
	byShape := map[string][]int64{}
	n := 0
	for i := range m.outcomes {
		a, o := &m.arrivals[i], &m.outcomes[i]
		if a.v.class == class && a.step == step && !o.failed {
			byShape[a.v.name] = append(byShape[a.v.name], o.last)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	var per []float64
	for _, s := range byShape {
		per = append(per, fastest(s, mixedFastShare)/1e6)
	}
	return geomean(per), n
}

// stat is the q-quantile in ms of one class at one step, with its sample
// count.
func (m *mixedRun) stat(class, step int, first bool, q float64) (float64, int) {
	s := m.lat(class, step, first)
	return ms(quantile(s, q)), len(s)
}

type mixedReady struct {
	f                 *fixture
	arrivals          []arrival
	attempted, failed int
}

// setupMixed starts the service, builds the payload pool and the schedule,
// and sends every variant once, verified, as warm-up.
func setupMixed(seed uint64, sc scale, st steps) (mixedReady, error) {
	f, err := startFixture()
	if err != nil {
		return mixedReady{}, err
	}
	pool, err := buildVariants(seed, sc.short)
	if err != nil {
		f.stop()
		return mixedReady{}, err
	}
	var warm []arrival
	for _, vs := range pool {
		for _, v := range vs {
			warm = append(warm, arrival{v: v})
		}
	}
	w := drive(f, warm, steps{}, true, nil)
	failed := w.failures()
	return mixedReady{f, buildSchedule(seed, st, sc.short, pool), len(warm), failed}, nil
}

// serveMixed is the open-loop workload: the only one where a queue forms
// and small requests meet large ones — head-of-line blocking in the
// one-batch-at-a-time dispatcher, JSON decode/encode of ~650 KB bodies and
// the streaming /batch path.
func serveMixed(seed uint64, sc scale, tr *tracer) (result, *mixedRun, probeStats, error) {
	res := result{Workload: "serve_mixed"}
	st := stepsOf(sc.seconds, tr != nil)
	rd, setupS, err := repeatSetup(sc.setupReps(setupReps),
		func() (mixedReady, error) { return setupMixed(seed, sc, st) },
		func(r mixedReady) { r.f.stop() })
	if err != nil {
		return res, nil, probeStats{}, err
	}
	defer rd.f.stop()

	probe := startProbe(rd.f.svc, tr)
	mem := markMem()
	run := drive(rd.f, rd.arrivals, st, false, tr)
	ps := probe.stop()
	failed := run.failures()
	ok := len(run.arrivals) - failed
	kb := mem.kbPerOp(ok)

	res.Attempted = rd.attempted + len(run.arrivals)
	res.Failed = rd.failed + failed
	top := len(mixedRates) - 1
	begin, end := st.begin(top), st.end(top)
	smallAt, small := run.timed(classSmall, top, begin)
	heavy, nLarge := run.undisturbed(classLarge, top)
	if len(small) == 0 || nLarge == 0 {
		return res, run, ps, fmt.Errorf("no request of the top step succeeded")
	}
	quiet := func(q float64) float64 {
		per := windows(smallAt, small, end-begin, window, func(s []int64) float64 { return float64(quantile(s, q)) })
		return fastest(per, windowShare) / 1e6
	}
	res.add("setup_s", setupS, "s", sc.setupReps(setupReps))
	res.add("ops_per_s", float64(ok)/run.elapsed.Seconds(), "1/s", ok)
	res.add("lat_typ_ms", quiet(0.50), "ms", len(small))
	res.add("lat_tail_ms", quiet(mixedTailQ), "ms", len(small))
	res.add("heavy_ms", heavy, "ms", nLarge)
	res.add("alloc_kb_per_op", kb, "KB", ok)
	res.add("ok_share", 1-float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	return res, run, ps, nil
}

func runServeMixed(seed uint64, sc scale, tr *tracer) (result, error) {
	r, _, _, err := serveMixed(seed, sc, tr)
	return r, err
}

// addSweep reports the client-side rate sweep of a traced run under
// serve.mixed.* and load.*.
func (m *mixedRun) addSweep(r *result) {
	slo := 0.0
	for step, rate := range mixedRates {
		tag := fmt.Sprintf("serve.mixed.r%d.", rate)
		p50, n := m.stat(classSmall, step, false, 0.50)
		p90, _ := m.stat(classSmall, step, false, 0.90)
		large, nLarge := m.stat(classLarge, step, false, 0.50)
		r.add(tag+"small_p50_ms", p50, "ms", n)
		r.add(tag+"small_p90_ms", p90, "ms", n)
		r.add(tag+"large_p50_ms", large, "ms", nLarge)
		if step == len(mixedRates)-1 {
			p99, _ := m.stat(classSmall, step, false, 0.99)
			r.add(tag+"small_p99_ms", p99, "ms", n)
		}
		failed := false
		for i := range m.outcomes {
			failed = failed || (m.arrivals[i].step == step && m.outcomes[i].failed)
		}
		// Met: the small class inside 10 ms at p90, nothing failed or
		// refused, and no more in flight late in the step than early.
		growing := m.halfMean[step][1] > 1.5*m.halfMean[step][0]+1
		if p90 <= 10 && !failed && !growing && n > 0 {
			slo = float64(rate)
		}
	}
	top := len(mixedRates) - 1
	first, nBatch := m.stat(classBatch, top, true, 0.50)
	last, _ := m.stat(classBatch, top, false, 0.50)
	r.add("serve.mixed.batch_first_p50_ms", first, "ms", nBatch)
	r.add("serve.mixed.batch_last_p50_ms", last, "ms", nBatch)
	r.add("serve.mixed.slo_rate_per_s", slo, "1/s", len(m.arrivals))
	r.add("load.gen_late_p99_ms", ms(quantile(m.late, 0.99)), "ms", len(m.late))
	r.add("load.inflight_max", float64(m.inflightMax), "count", len(m.arrivals))
}
