package serve

// The service-level test battery: end-to-end HTTP tests asserting
// concurrently served responses are byte-identical to per-request serial
// execution, a -race stress run with concurrent clients on one shared pool,
// cancellation (an abandoned request's kernel never runs and its admission
// slot is released), backpressure (overload answers 429, nothing deadlocks,
// the admitted requests drain), head-of-line freedom (a small request
// completes while a large one holds a worker), a /batch window cut by the
// admission bound, shutdown, and the body cap.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/fj"
	"repro/internal/rt"
)

// serialReference runs one request on a private single-worker pool, outside
// the service — the per-request serial execution served responses must
// match byte for byte.
func serialReference(t *testing.T, kernel string, in []int64) []int64 {
	t.Helper()
	k, ok := registry.FindInvocable(kernel)
	if !ok {
		t.Fatalf("kernel %q not invocable", kernel)
	}
	if err := k.Validate(in); err != nil {
		t.Fatalf("reference input invalid: %v", err)
	}
	out := make([]int64, k.OutLen(in))
	pool := rt.NewPool(1, rt.Random)
	defer pool.Close()
	fj.RunReal(pool, func(c *fj.Ctx) { k.Run(c, in, out) })
	return out
}

// postInvoke sends one request to the test server and decodes the response.
func postInvoke(t *testing.T, url string, req Request) (Response, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/invoke", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp Response
	if hr.StatusCode == http.StatusOK {
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, hr
}

// kernelGate is a hookKernel for the tests that need to see what reached a
// kernel or to hold a worker mid-request: it counts every call it is handed
// and parks the ones hold selects (nth is the 1-based arrival count) until
// open is called, announcing each on entered first.
type kernelGate struct {
	seen    atomic.Int64
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func gateKernels(svc *Service, hold func(c *call, nth int64) bool) *kernelGate {
	// entered is sized past any test's request count so the hook never
	// blocks on a test that does not read it.
	g := &kernelGate{entered: make(chan struct{}, 64), release: make(chan struct{})}
	svc.hookKernel = func(c *call) {
		if hold(c, g.seen.Add(1)) {
			g.entered <- struct{}{}
			<-g.release
		}
	}
	return g
}

func (g *kernelGate) open() { g.once.Do(func() { close(g.release) }) }

// awaitEntered waits for the next held call.
func (g *kernelGate) awaitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no request reached the kernel gate")
	}
}

// awaitSnapshot polls the service's metrics until ok accepts them.
func awaitSnapshot(t *testing.T, svc *Service, what string, ok func(Snapshot) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(svc.Metrics().Snapshot()); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, svc.Metrics().Snapshot())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// genInput builds the i-th seeded payload for a kernel at a test-friendly
// size (the cubic-work and quadratic-payload kernels run smaller).
func genInput(t *testing.T, kernel string, i int) []int64 {
	t.Helper()
	k, _ := registry.FindInvocable(kernel)
	var n int64
	switch kernel {
	case "strassen", "matmul":
		n = 16
	case "transpose":
		n = 24
	case "fft":
		n = 256
	default:
		n = 512
	}
	in, err := k.Gen(n, uint64(1000+i))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestConcurrentByteIdenticalToSerial is the headline end-to-end gate: for
// every served kernel — all nine, float codecs included — eight concurrent
// HTTP requests run as eight roots sharing one four-worker pool, and every
// response's output is byte-identical to running that request alone on a
// serial pool.
func TestConcurrentByteIdenticalToSerial(t *testing.T) {
	const width = 8
	for _, k := range registry.Invocables() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			svc := New(Config{Pool: 4, QueueBound: 64})
			defer svc.Close()
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()

			inputs := make([][]int64, width)
			for i := range inputs {
				inputs[i] = genInput(t, k.Name, i)
			}
			resps := make([]Response, width)
			var wg sync.WaitGroup
			for i := 0; i < width; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, hr := postInvoke(t, ts.URL, Request{Kernel: k.Name, Input: inputs[i], Verify: true})
					if hr.StatusCode != http.StatusOK {
						t.Errorf("request %d: status %d", i, hr.StatusCode)
						return
					}
					resps[i] = resp
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i := 0; i < width; i++ {
				if resps[i].Verified == nil || !*resps[i].Verified {
					t.Errorf("request %d: service-side verification failed", i)
				}
				want := serialReference(t, k.Name, inputs[i])
				if len(resps[i].Output) != len(want) {
					t.Fatalf("request %d: output length %d, want %d", i, len(resps[i].Output), len(want))
				}
				for j := range want {
					if resps[i].Output[j] != want[j] {
						t.Fatalf("request %d: output word %d = %d, serial reference = %d (concurrent execution diverged)",
							i, j, resps[i].Output[j], want[j])
					}
				}
			}
			if m := svc.Metrics().Snapshot(); m.Completed != width || m.Batches != width {
				t.Errorf("metrics: %d roots started, %d completed, want %d of each", m.Batches, m.Completed, width)
			}
		})
	}
}

// TestConcurrentClientsStress hammers one shared pool from many concurrent
// HTTP clients with mixed kernels; run under -race in CI.  Every response
// must match its own serial reference — no cross-request bleed under
// concurrency.
func TestConcurrentClientsStress(t *testing.T) {
	svc := New(Config{Pool: 4, QueueBound: 256})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	kernels := []string{"sort", "scan", "gather", "sortx"}
	const clients, perClient = 8, 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				kernel := kernels[(c+r)%len(kernels)]
				in := genInput(t, kernel, c*perClient+r)
				resp, hr := postInvoke(t, ts.URL, Request{Kernel: kernel, Input: in})
				if hr.StatusCode != http.StatusOK {
					t.Errorf("client %d req %d: status %d", c, r, hr.StatusCode)
					return
				}
				k, _ := registry.FindInvocable(kernel)
				if !k.Verify(in, resp.Output) {
					t.Errorf("client %d req %d (%s): wrong output", c, r, kernel)
				}
			}
		}(c)
	}
	wg.Wait()
	m := svc.Metrics().Snapshot()
	if want := int64(clients * perClient); m.Completed != want {
		t.Errorf("completed %d responses, want %d", m.Completed, want)
	}
	if m.Failed != 0 || m.Canceled != 0 {
		t.Errorf("stress run recorded failures: %+v", m)
	}
}

// TestCancellationNeverSchedules pins the cancellation contract: a request
// abandoned while it waits for a worker is dropped when its root starts —
// its kernel never runs — and its admission slot is freed.
func TestCancellationNeverSchedules(t *testing.T) {
	svc := New(Config{Pool: 1, QueueBound: 2})
	defer svc.Close()
	gate := gateKernels(svc, func(_ *call, nth int64) bool { return nth == 1 })
	defer gate.open()

	// The first request holds the only worker...
	first := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), Request{Kernel: "sort", N: 64, Seed: 1})
		first <- err
	}()
	gate.awaitEntered(t)
	// ...the victim is admitted behind it, then abandoned.
	ctx, cancel := context.WithCancel(context.Background())
	victim := make(chan error, 1)
	go func() {
		_, err := svc.Submit(ctx, Request{Kernel: "sort", N: 64, Seed: 2})
		victim <- err
	}()
	awaitSnapshot(t, svc, "the victim's admission", func(m Snapshot) bool { return m.Accepted == 2 })
	cancel()
	if err := <-victim; err != context.Canceled {
		t.Fatalf("abandoned Submit returned %v, want context.Canceled", err)
	}
	gate.open()
	if err := <-first; err != nil {
		t.Fatalf("the request holding the worker failed: %v", err)
	}
	awaitSnapshot(t, svc, "the victim's root to be dropped", func(m Snapshot) bool { return m.Canceled == 1 })
	if got := gate.seen.Load(); got != 1 {
		t.Errorf("%d requests reached a kernel, want 1 — the cancelled request was scheduled", got)
	}
	if m := svc.Metrics().Snapshot(); m.QueueDepth != 0 || m.Batches != 1 {
		t.Errorf("after the drop: queue depth %d, %d roots started, want 0 and 1", m.QueueDepth, m.Batches)
	}

	// Slots released: the full bound is usable again, concurrently.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := svc.Submit(context.Background(), Request{Kernel: "sort", N: 32, Seed: uint64(i)}); err != nil {
				t.Errorf("post-cancel request %d failed: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestClientDisconnectHTTP is the cancellation contract at the HTTP layer:
// a client that disconnects while its request waits for a worker never gets
// its kernel run.
func TestClientDisconnectHTTP(t *testing.T) {
	svc := New(Config{Pool: 1, QueueBound: 8})
	defer svc.Close()
	gate := gateKernels(svc, func(_ *call, nth int64) bool { return nth == 1 })
	defer gate.open()
	// returned announces every handler return, so the test can wait for the
	// server to notice the disconnect (it does so asynchronously).
	returned := make(chan struct{}, 2)
	handler := svc.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		_, hr := postInvoke(t, ts.URL, Request{Kernel: "sort", N: 64})
		first <- hr.StatusCode
	}()
	gate.awaitEntered(t)

	body, _ := json.Marshal(Request{Kernel: "sort", N: 64})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/invoke", bytes.NewReader(body))
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	awaitSnapshot(t, svc, "the victim's admission", func(m Snapshot) bool { return m.Accepted == 2 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("disconnected client got a response")
	}
	select {
	case <-returned: // the victim's handler gave up; the first is still held
	case <-time.After(10 * time.Second):
		t.Fatal("the server never noticed the disconnect")
	}
	gate.open()
	if status := <-first; status != http.StatusOK {
		t.Fatalf("the request holding the worker got status %d", status)
	}
	awaitSnapshot(t, svc, "the abandoned request to be dropped", func(m Snapshot) bool { return m.Canceled == 1 })
	if got := gate.seen.Load(); got != 1 {
		t.Errorf("%d requests reached a kernel, want 1", got)
	}
}

// TestBackpressure fills the admission bound behind a deliberately held
// worker: the overflow request must get an immediate 429 with Retry-After,
// nothing may deadlock, and opening the gate must drain everything.
func TestBackpressure(t *testing.T) {
	svc := New(Config{Pool: 1, QueueBound: 2})
	defer svc.Close()
	gate := gateKernels(svc, func(*call, int64) bool { return true })
	defer gate.open()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// First request occupies the pool (the gate holds its root)...
	results := make(chan int, 3)
	post := func() {
		_, hr := postInvoke(t, ts.URL, Request{Kernel: "sort", N: 64})
		results <- hr.StatusCode
	}
	go post()
	gate.awaitEntered(t)
	// ...the next two fill the bound...
	go post()
	go post()
	awaitSnapshot(t, svc, "two requests waiting for a worker", func(m Snapshot) bool { return m.QueueDepth == 2 })
	// ...and the overflow request is turned away immediately.
	_, hr := postInvoke(t, ts.URL, Request{Kernel: "sort", N: 64})
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request got status %d, want 429", hr.StatusCode)
	}
	if hr.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
	if m := svc.Metrics().Snapshot(); m.Rejected == 0 {
		t.Error("rejected counter not incremented")
	}

	// Open the gate: everything admitted must drain to 200s.
	gate.open()
	for i := 0; i < 3; i++ {
		select {
		case status := <-results:
			if status != http.StatusOK {
				t.Errorf("drained request got status %d", status)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("admitted requests did not drain — deadlock")
		}
	}
}

// TestSmallNotBehindLarge is the head-of-line gate: with a large request
// held mid-root on one of two workers, a small request submitted after it
// completes on the other.  (With one dispatcher running requests one at a
// time this could not happen.)
func TestSmallNotBehindLarge(t *testing.T) {
	svc := New(Config{Pool: 2})
	defer svc.Close()
	gate := gateKernels(svc, func(c *call, _ int64) bool { return len(c.in) > 1024 })
	defer gate.open()

	large := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), Request{Kernel: "sort", N: 1 << 16, Seed: 1})
		large <- err
	}()
	gate.awaitEntered(t)
	for i := 0; i < 20; i++ {
		resp, err := svc.Submit(context.Background(), Request{Kernel: "scan", N: 256, Seed: uint64(i), Verify: true})
		if err != nil || resp.Verified == nil || !*resp.Verified {
			t.Fatalf("small request %d behind the held large one: %v %+v", i, err, resp.Verified)
		}
	}
	select {
	case err := <-large:
		t.Fatalf("the large request finished while its root was held: %v", err)
	default:
	}
	gate.open()
	if err := <-large; err != nil {
		t.Fatalf("large request failed after release: %v", err)
	}
}

// TestMalformedPayloads400 drives the decode path over the wire: malformed
// payloads must come back 400 (never a panic/500), unknown kernels 404, and
// the service must stay healthy throughout.
func TestMalformedPayloads400(t *testing.T) {
	svc := New(Config{Pool: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"unknown kernel", `{"kernel":"nope","n":8}`, http.StatusNotFound},
		{"gather odd payload", `{"kernel":"gather","input":[0,10,20]}`, http.StatusBadRequest},
		{"gather index out of range", `{"kernel":"gather","input":[2,0,10,20]}`, http.StatusBadRequest},
		{"strassen non-square", `{"kernel":"strassen","input":[1,2,3,4,5,6]}`, http.StatusBadRequest},
		{"strassen non-pow2 request", `{"kernel":"strassen","n":3}`, http.StatusBadRequest},
		{"fft odd payload", `{"kernel":"fft","input":[1,2,3]}`, http.StatusBadRequest},
		{"fft non-pow2 request", `{"kernel":"fft","n":3}`, http.StatusBadRequest},
		{"listrank cyclic payload", `{"kernel":"listrank","input":[1,0,-1]}`, http.StatusBadRequest},
		{"negative n", `{"kernel":"sort","n":-5}`, http.StatusBadRequest},
		{"oversized n", `{"kernel":"sort","n":99999999999}`, http.StatusBadRequest},
		{"bad json", `{"kernel":`, http.StatusBadRequest},
		// The edge is strict where the old Decoder was not, or where a
		// hand-rolled scanner could drift (TestDecodeRequestGrammar has the
		// full table; these go over the wire).
		{"trailing junk", `{"kernel":"sort","input":[2,1]} trailing junk`, http.StatusBadRequest},
		{"second request", `{"kernel":"sort","n":4}{"kernel":"sort","n":4}`, http.StatusBadRequest},
		{"float word", `{"kernel":"sort","input":[1,2.5]}`, http.StatusBadRequest},
		{"exponent word", `{"kernel":"sort","input":[1e3]}`, http.StatusBadRequest},
		{"leading-zero word", `{"kernel":"sort","input":[007]}`, http.StatusBadRequest},
		{"plus-signed word", `{"kernel":"sort","input":[+7]}`, http.StatusBadRequest},
		{"word out of range", `{"kernel":"sort","input":[9223372036854775808]}`, http.StatusBadRequest},
		{"null word", `{"kernel":"sort","input":[1,null]}`, http.StatusBadRequest},
		{"float n", `{"kernel":"sort","n":4.0}`, http.StatusBadRequest},
		{"n out of range", `{"kernel":"sort","n":9223372036854775808}`, http.StatusBadRequest},
		{"negative seed", `{"kernel":"sort","n":4,"seed":-1}`, http.StatusBadRequest},
		{"seed out of range", `{"kernel":"sort","n":4,"seed":18446744073709551616}`, http.StatusBadRequest},
		{"invalid unknown member", `{"kernel":"sort","n":4,"note":[1,]}`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hr, err := http.Post(ts.URL+"/invoke", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer hr.Body.Close()
			if hr.StatusCode != tc.status {
				t.Errorf("status %d, want %d", hr.StatusCode, tc.status)
			}
			var e httpError
			if err := json.NewDecoder(hr.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("error body missing or undecodable: %v", err)
			}
		})
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("service unhealthy after malformed payloads: %v %v", err, hr)
	}
	hr.Body.Close()
}

// TestBatchEndpointJSONL exercises the streaming JSONL surface: responses
// come back one JSON object per request in COMPLETION order, each tagged
// with the index of the request it answers (the client's reorder key),
// with inline {"index", "error"} lines for per-request failures.
func TestBatchEndpointJSONL(t *testing.T) {
	svc := New(Config{Pool: 2, QueueBound: 64})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	const reqs = 6
	for i := 0; i < reqs; i++ {
		fmt.Fprintf(&buf, `{"kernel":"scan","n":%d,"seed":%d}`+"\n", 32+i, i)
	}
	buf.WriteString(`{"kernel":"nope","n":4}` + "\n")
	hr, err := http.Post(ts.URL+"/batch", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d", hr.StatusCode)
	}
	// One stream line per request — any order, every index exactly once.
	type line struct {
		Index  int    `json:"index"`
		Error  string `json:"error"`
		Kernel string `json:"kernel"`
		N      int64  `json:"n"`
	}
	seen := make(map[int]line)
	dec := json.NewDecoder(hr.Body)
	for {
		var l line
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("stream line %d: %v", len(seen), err)
		}
		if _, dup := seen[l.Index]; dup {
			t.Fatalf("index %d streamed twice", l.Index)
		}
		seen[l.Index] = l
	}
	if len(seen) != reqs+1 {
		t.Fatalf("stream carried %d lines, want %d", len(seen), reqs+1)
	}
	for i := 0; i < reqs; i++ {
		l, ok := seen[i]
		if !ok {
			t.Fatalf("no stream line for request %d", i)
		}
		if l.Error != "" || l.Kernel != "scan" || l.N != int64(32+i) {
			t.Errorf("request %d answered by the wrong line: %+v", i, l)
		}
	}
	if l := seen[reqs]; l.Error == "" {
		t.Fatalf("missing inline error for the bad request: %+v", l)
	}
}

// TestBatchWindowAdmissionRefusal covers a /batch window that the
// admission bound cuts in the middle: with the one worker held on an
// /invoke and a second /invoke waiting, the window's line 0 takes the last
// slot and line 1 is refused.  The refusal streams as an inline error line,
// the admitted line is answered once the worker is free, and the stream
// carries exactly those two lines.
func TestBatchWindowAdmissionRefusal(t *testing.T) {
	svc := New(Config{Pool: 1, QueueBound: 2})
	defer svc.Close()
	gate := gateKernels(svc, func(_ *call, nth int64) bool { return nth == 1 })
	defer gate.open()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	invokes := make(chan int, 2)
	post := func() {
		_, hr := postInvoke(t, ts.URL, Request{Kernel: "sort", N: 64})
		invokes <- hr.StatusCode
	}
	go post()
	gate.awaitEntered(t)
	go post()
	awaitSnapshot(t, svc, "one /invoke waiting for a worker", func(m Snapshot) bool { return m.QueueDepth == 1 })

	type reply struct {
		hr  *http.Response
		err error
	}
	batch := make(chan reply, 1)
	go func() {
		body := `{"kernel":"scan","n":8,"seed":1}` + "\n" + `{"kernel":"scan","n":8,"seed":2}` + "\n"
		hr, err := http.Post(ts.URL+"/batch", "application/jsonl", strings.NewReader(body))
		batch <- reply{hr, err}
	}()
	awaitSnapshot(t, svc, "line 1 of the window refused", func(m Snapshot) bool { return m.Rejected == 1 })
	if m := svc.Metrics().Snapshot(); m.QueueDepth != 2 {
		t.Fatalf("queue depth %d with line 0 admitted, want 2", m.QueueDepth)
	}
	gate.open()

	var r reply
	select {
	case r = <-batch:
	case <-time.After(10 * time.Second):
		t.Fatal("/batch did not answer")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.hr.Body.Close()
	if r.hr.StatusCode != http.StatusOK {
		t.Fatalf("/batch status %d, want 200", r.hr.StatusCode)
	}
	type line struct {
		Index  int    `json:"index"`
		Error  string `json:"error"`
		Kernel string `json:"kernel"`
	}
	seen := make(map[int]line)
	dec := json.NewDecoder(r.hr.Body)
	for {
		var l line
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("stream line %d: %v", len(seen), err)
		}
		if _, dup := seen[l.Index]; dup {
			t.Fatalf("index %d streamed twice", l.Index)
		}
		seen[l.Index] = l
	}
	if len(seen) != 2 {
		t.Fatalf("stream carried %d lines, want 2: %+v", len(seen), seen)
	}
	if l := seen[0]; l.Error != "" || l.Kernel != "scan" {
		t.Errorf("admitted line 0 answered by %+v, want a scan response", l)
	}
	if l := seen[1]; !strings.Contains(l.Error, "overloaded") {
		t.Errorf("refused line 1 answered by %+v, want an inline overloaded error", l)
	}
	for i := 0; i < 2; i++ {
		select {
		case status := <-invokes:
			if status != http.StatusOK {
				t.Errorf("/invoke got status %d, want 200", status)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the /invokes did not drain")
		}
	}
}

// TestSubmitAfterClose pins the shutdown contract.
func TestSubmitAfterClose(t *testing.T) {
	svc := New(Config{Pool: 1})
	svc.Close()
	if _, err := svc.Submit(context.Background(), Request{Kernel: "sort", N: 4}); err != ErrClosed {
		t.Fatalf("Submit after Close returned %v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}

// TestCloseResolvesAdmitted pins the rest of the shutdown contract: a
// request already running when Close is called finishes, one admitted but
// not yet started resolves with ErrClosed, and Close returns after both.
func TestCloseResolvesAdmitted(t *testing.T) {
	svc := New(Config{Pool: 1})
	gate := gateKernels(svc, func(_ *call, nth int64) bool { return nth == 1 })
	defer gate.open()
	submit := func(seed uint64, errc chan<- error) {
		_, err := svc.Submit(context.Background(), Request{Kernel: "sort", N: 64, Seed: seed})
		errc <- err
	}
	running, waiting := make(chan error, 1), make(chan error, 1)
	go submit(1, running)
	gate.awaitEntered(t)
	go submit(2, waiting)
	awaitSnapshot(t, svc, "the second request's admission", func(m Snapshot) bool { return m.QueueDepth == 1 })
	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	for !svc.isClosed() {
		time.Sleep(100 * time.Microsecond)
	}
	gate.open()
	if err := <-running; err != nil {
		t.Errorf("the running request failed: %v", err)
	}
	if err := <-waiting; err != ErrClosed {
		t.Errorf("the admitted-but-not-started request returned %v, want ErrClosed", err)
	}
	<-closed
	if got := gate.seen.Load(); got != 1 {
		t.Errorf("%d requests reached a kernel, want 1", got)
	}
}

// TestBodyByteCap: request bodies are cut off before decoding once they
// pass the cap derived from MaxWords, on both endpoints, while the largest
// payload class the benchmark serves (~650 KB of JSON) fits the default cap.
func TestBodyByteCap(t *testing.T) {
	words := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", -9000000000000000000+int64(i))
		}
		return b.String()
	}
	small := New(Config{Pool: 1, MaxWords: 64}) // cap: 64·21 + 4096 = 5440 bytes
	defer small.Close()
	deflt := New(Config{Pool: 1})
	defer deflt.Close()
	legal := `{"kernel":"sort","input":[` + words(31000) + `]}` // ≈ 650 KB
	cases := []struct {
		name   string
		svc    *Service
		path   string
		body   string
		status int
	}{
		{"invoke oversize", small, "/invoke", `{"kernel":"sort","input":[` + words(512) + `]}`, http.StatusRequestEntityTooLarge},
		{"batch oversize", small, "/batch", strings.Repeat(`{"kernel":"sort","input":[`+words(32)+"]}\n", 16), http.StatusRequestEntityTooLarge},
		{"invoke under the byte cap, over the word cap", small, "/invoke", `{"kernel":"sort","input":[` + strings.Repeat("1,", 200) + `1]}`, http.StatusBadRequest},
		{"invoke at the cap's scale", small, "/invoke", `{"kernel":"sort","input":[` + words(64) + `]}`, http.StatusOK},
		{"invoke 650 KB", deflt, "/invoke", legal, http.StatusOK},
		{"batch 650 KB", deflt, "/batch", legal + "\n", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.svc.Handler())
			defer ts.Close()
			hr, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer hr.Body.Close()
			out, _ := io.ReadAll(hr.Body)
			if hr.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%d-byte body): %.200s", hr.StatusCode, tc.status, len(tc.body), out)
			}
			if tc.status == http.StatusOK && bytes.Contains(out, []byte(`"error"`)) {
				t.Errorf("accepted body answered with an error line: %.200s", out)
			}
		})
	}
}
