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
// kernel failure or a panic in a codec block 500.  A request whose client
// disconnected is simply dropped — its kernel never ran (see the check at
// the top of Service.run) and there is nobody left to answer.
//
// Requests and responses of /invoke and /batch go through the codec of
// wire.go and nothing else; errors, /metrics and /kernels are small and cold
// and stay on encoding/json.  The codec runs on the handler goroutine,
// except that the words of an "input" or "output" longer than one block
// (codecBlock, 16 KiB) are coded as an fj loop on the service's pool while
// the handler waits.  A request is
//
//	{"kernel": string, "input": [int64, ...], "n": int64, "seed": uint64, "verify": bool}
//
// with every member optional, in any order, white space anywhere JSON allows
// it.  What is accepted is what json.Unmarshal into Request accepts: names
// match case-folded, the last duplicate of a name wins, unknown members are
// skipped but must be valid JSON, null leaves a scalar unset, and "input":[]
// is an explicit empty payload where an absent or null "input" asks for the
// seeded size-n one.  Numbers are JSON integers in their field's range: a
// fraction, an exponent, a leading zero, a '+' or an out-of-range value is
// 400, in "input" as in "n" and "seed".  Two things are stricter than the
// json.Decoder this replaced: /invoke refuses anything but white space
// after its one request object (the Decoder stopped reading there and
// answered 200), and a null element of "input" is refused where
// encoding/json kept whatever stood at that index.  /batch reads requests
// back to back, separated by any white space or none.  A response is
// byte for byte what json.Marshal of Response gives, plus a newline, and
// /invoke sends it with a Content-Length.
//
// Request bodies are capped before decoding (maxBodyBytes, derived from
// Config.MaxWords), so the word cap bounds memory and not just what runs:
// the body is read whole, once, into a buffer sized from Content-Length, and
// its words are allocated once at their exact count.  Body and response
// buffers are recycled through the service's bufList, which holds at most
// maxFreeBufs buffers of at most maxFreeBufBytes each (32 MiB in all) for
// the life of the service; a Request's Input and a Response's Output are
// never part of one.
//
// With Config.RatePerSec set, /invoke and /batch are rate limited per
// client (X-Client-ID header, falling back to the remote host) ahead of
// admission: a client over its token bucket gets 429 with a Retry-After
// derived from when the bucket next accrues what the request needs.  A
// /batch request is charged one token per JSONL line, after the whole body
// has been decoded, and is admitted or refused whole.  Per-client counts
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
// into the byte cap, 500 when the codec panicked, 400 otherwise.
func writeDecodeError(w http.ResponseWriter, what string, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, errCodecPanic):
		status = http.StatusInternalServerError
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

// readBody reads a request body whole into a buffer from s.bufs, through
// http.MaxBytesReader (so a body over the byte cap is cut off and answered
// 413) and sized from Content-Length so that an honest client costs one
// read-to-EOF and no regrowth.  The caller gives the buffer back, on errors
// too.
func (s *Service) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	limit := s.maxBodyBytes()
	size := r.ContentLength
	if size < 0 || size > limit {
		size = 4 << 10 // undeclared, or a declared size the cap will refuse anyway
	}
	src := http.MaxBytesReader(w, r.Body, limit)
	buf := s.bufs.get(int(size) + 1) // the spare byte lets the last Read see EOF
	for {
		if len(buf) == cap(buf) {
			grown := s.bufs.get(2 * cap(buf))
			grown = append(grown, buf...)
			s.bufs.put(buf)
			buf = grown
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (s *Service) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if !s.admitClient(w, r, 1) {
		return
	}
	if s.invoking.Add(1) == 1 {
		s.pace()
	}
	defer s.invoking.Add(-1)
	body, err := s.readBody(w, r)
	var req Request
	if err == nil {
		err = decodeOnly(body, &req, s)
	}
	s.bufs.put(body) // req holds no reference into it
	if err != nil {
		writeDecodeError(w, "bad JSON", err)
		return
	}
	resp, err := s.Submit(r.Context(), req)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	out, err := encodeResponse(s.bufs.get(responseBytes(resp.Kernel, len(resp.Output))), &resp, s)
	if err != nil {
		s.bufs.put(out)
		writeJSON(w, http.StatusInternalServerError, httpError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.Write(out) // a failed write means the client left; there is nobody to tell
	s.bufs.put(out)
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
	body, err := s.readBody(w, r)
	var reqs []Request
	for i := skipSpace(body, 0); err == nil && i < len(body); i = skipSpace(body, i) {
		var q Request
		var n int
		if n, err = decodeRequest(body[i:], &q, s); err == nil {
			reqs = append(reqs, q)
			i += n
		}
	}
	s.bufs.put(body) // the decoded requests hold no reference into it
	if err != nil {
		writeDecodeError(w, "bad JSONL at request "+strconv.Itoa(len(reqs)+1), err)
		return
	}
	if !s.admitClient(w, r, len(reqs)) {
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	errs := json.NewEncoder(w)
	var line []byte // one buffer for every response line of the stream
	for res := range s.SubmitBatch(r.Context(), reqs) {
		if res.Err == nil {
			if need := responseBytes(res.Resp.Kernel, len(res.Resp.Output)); cap(line) < need {
				s.bufs.put(line)
				line = s.bufs.get(need)
			}
			line, res.Err = encodeResponse(line[:0], &res.Resp, s)
		}
		if res.Err != nil {
			errs.Encode(batchError{Index: res.Index, Error: res.Err.Error()})
		} else {
			w.Write(line)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	s.bufs.put(line)
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
