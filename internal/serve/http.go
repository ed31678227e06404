package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/algos/registry"
)

// HTTP surface of the service:
//
//	POST /invoke   one JSON Request  -> one JSON Response
//	POST /batch    JSONL stream of Requests -> JSONL stream of Responses,
//	               streamed in COMPLETION order as each request finishes:
//	               every line carries "index", the 0-based position of the
//	               request it answers, so the client reorders (or consumes
//	               out of order); per-request errors are inline
//	               {"index": i, "error": ...} lines
//	GET  /metrics  Snapshot as JSON
//	GET  /kernels  the invocable catalog:
//	               [{"name": ..., "desc": ..., "payload": ...}, ...]
//	GET  /healthz  "ok"
//
// Error mapping: unknown kernel 404, malformed payload 400, a body over the
// byte cap 413, backpressure 429 with a Retry-After header, shutdown 503,
// kernel failure 500.  A request whose client disconnected is simply
// dropped — its kernel never ran (see the check at the top of Service.run)
// and there is nobody left to answer.
//
// Request bodies are capped before decoding (maxBodyBytes, derived from
// Config.MaxWords), so the word cap bounds memory and not just what runs.
//
// With Config.RatePerSec set, /invoke and /batch are rate limited per
// client (X-Client-ID header, falling back to the remote host) ahead of
// admission: a client over its token bucket gets 429 with a Retry-After
// derived from when the bucket next accrues what the request needs.  A
// /batch request is charged one token per JSONL line.  Per-client counts
// appear on /metrics as "clients".
//
// A lone /invoke caller is paced: a request that finds no other /invoke in
// progress waits until idleGap after the last such request (see idleGap).

// httpError is the JSON error body every non-2xx response carries.
type httpError struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke", s.handleInvoke)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /kernels", s.handleKernels)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// retryAfter is the Retry-After an overloaded client is given: one second,
// the header's smallest unit.  Admitted requests drain in far less.
const retryAfter = "1"

// maxBodyBytes caps a request body: a JSON int64 is at most 21 bytes with
// its separator, plus slack for the envelope fields.  /batch gets the same
// cap for its whole JSONL body, which it buffers before admitting any line.
func (s *Service) maxBodyBytes() int64 { return 21*s.cfg.MaxWords + 4<<10 }

// writeDecodeError answers a body that failed to decode: 413 when it ran
// into the byte cap, 400 otherwise.
func writeDecodeError(w http.ResponseWriter, what string, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, httpError{Error: what + ": " + err.Error()})
}

// writeSubmitError maps a Submit error onto its HTTP status.  It reports
// whether anything was written (a vanished client gets nothing).
func (s *Service) writeSubmitError(w http.ResponseWriter, err error) bool {
	var status int
	switch {
	case errors.Is(err, ErrUnknownKernel):
		status = http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", retryAfter)
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrKernel):
		status = http.StatusInternalServerError
	default:
		// Context cancellation: the client is gone; nothing to say.
		return false
	}
	writeJSON(w, status, httpError{Error: err.Error()})
	return true
}

// admitClient charges n request tokens to the calling client.  On a denial
// it writes the 429 itself and reports false.
func (s *Service) admitClient(w http.ResponseWriter, r *http.Request, n int) bool {
	if s.limiter == nil || n == 0 {
		return true
	}
	ok, retry := s.limiter.allowN(clientID(r), n)
	if ok {
		return true
	}
	s.met.limited.Add(int64(n))
	sec := int((retry + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	writeJSON(w, http.StatusTooManyRequests,
		httpError{Error: fmt.Sprintf("serve: rate limited: client %q is over %g requests/second", clientID(r), s.cfg.RatePerSec)})
	return false
}

// idleGap paces a lone /invoke caller.  A request that finds no other
// /invoke in progress is held until its slot, idleGap after the slot of the
// previous request that found none, polling the clock and yielding
// meanwhile.  A request that meets another in progress, or comes more than
// idleGap after the last slot, never waits: the pace costs a loaded service
// no throughput and sparse traffic no latency, and what it caps is one
// connection posting back to back, at 1/idleGap.  It is there for
// repeatability, not speed.  That caller's round trip is ~40 µs of CPU and
// thread wake-ups, so its throughput was a reading of the host's speed of
// the moment (15.4–19.8k req/s over six identical 20 s runs on the
// reference box, where a constant net/http handler swings 23.9–27.1k the
// same way), and the benchmark's serve_small has to repeat from run to run.
// Like rate limiting it is a policy of the HTTP surface: in-process Submit
// callers are not paced.  Polled, not slept: a timer armed for less than a
// scheduler tick fires at the tick, 1 ms late on coarse-tick hosts.
const idleGap = 300 * time.Microsecond

// pace applies idleGap to an /invoke request that found itself alone.  The
// slots it hands out are idleGap apart, and a request up to one gap late for
// its slot takes it without pushing the next one back, so a caller whose
// round trips are sometimes slow still averages 1/idleGap.
func (s *Service) pace() {
	slot := s.lastLone.Load() + int64(idleGap)
	now := time.Now().UnixNano()
	if now-slot > int64(idleGap) {
		slot = now
	}
	for now < slot {
		runtime.Gosched()
		now = time.Now().UnixNano()
	}
	s.lastLone.Store(slot)
}

func (s *Service) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if !s.admitClient(w, r, 1) {
		return
	}
	if s.invoking.Add(1) == 1 {
		s.pace()
	}
	defer s.invoking.Add(-1)
	var req Request
	body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes())
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeDecodeError(w, "bad JSON", err)
		return
	}
	resp, err := s.Submit(r.Context(), req)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchError is the inline error line of the streaming /batch protocol:
// like httpError, but tagged with the index of the request it answers.
type batchError struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// handleBatch reads a JSONL stream of requests, submits them all
// concurrently, and streams each response back the moment its request
// completes — completion order, not
// request order, every line tagged with the request index (batchError for
// per-request failures).  The stream itself stays 200 once the first byte
// is written; each line is flushed as it is sent, so a client sees early
// completions while later requests are still running.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBodyBytes()))
	var reqs []Request
	for {
		var q Request
		if err := dec.Decode(&q); err == io.EOF {
			break
		} else if err != nil {
			writeDecodeError(w, "bad JSONL at request "+strconv.Itoa(len(reqs)+1), err)
			return
		}
		reqs = append(reqs, q)
	}
	if !s.admitClient(w, r, len(reqs)) {
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for res := range s.SubmitBatch(r.Context(), reqs) {
		if res.Err != nil {
			enc.Encode(batchError{Index: res.Index, Error: res.Err.Error()})
		} else {
			enc.Encode(res.Resp)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.met.Snapshot())
}

func (s *Service) handleKernels(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name    string `json:"name"`
		Desc    string `json:"desc"`
		Payload string `json:"payload"`
	}
	var out []entry
	for _, k := range registry.Invocables() {
		out = append(out, entry{Name: k.Name, Desc: k.Desc, Payload: k.Payload})
	}
	writeJSON(w, http.StatusOK, out)
}
