package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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
// Error mapping (writeError): unknown kernel 404, malformed payload 400, a
// body over the byte cap or a /batch of more than Config.QueueBound requests
// 413, backpressure 429 with a Retry-After header, shutdown 503, a panic
// anywhere in serving a request 500.  A request whose client
// disconnected is simply dropped — its kernel never ran (see the check at
// the top of Service.run) and there is nobody left to answer.
//
// Requests and responses of /invoke and /batch go through the codec of
// wire.go and nothing else; errors, /metrics and /kernels are small and cold
// and stay on encoding/json.  The handler only scans a request's envelope;
// its root parses the words and encodes the response (Service.serve).  A
// request is
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
// 400, in "input" as in "n" and "seed", and so is a null element of
// "input".  /invoke refuses anything but white space after its one request
// object; /batch reads requests back to back, separated by any white space
// or none.  A response is byte for byte what json.Marshal of Response
// gives, plus a newline, and /invoke sends it with a Content-Length.
//
// Request bodies are capped before decoding (maxBodyBytes, derived from
// Config.MaxWords), so the word cap bounds memory and not just what runs:
// the body is read whole, once, into a buffer sized from Content-Length, and
// its words are counted, checked against the cap and only then allocated.
// Bodies, word slabs and encoded responses are recycled through the
// service's free lists (freeList, wire.go); a Request's Input and a
// Response's Output handed to an in-process caller are never part of one.
//
// With Config.RatePerSec set, /invoke and /batch are rate limited per
// client (X-Client-ID header, falling back to the remote host) ahead of
// admission: a client over its token bucket gets 429 with a Retry-After
// derived from when the bucket next accrues what the request needs.  A
// /batch request is charged one token per JSONL line, after the whole body
// has been decoded, and is admitted or refused whole.  Per-client counts
// appear on /metrics as "clients".

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

// A body that fails to decode is answered with its first error, prefixed by
// errBadJSON (/invoke) or errBadJSONL and the request's position (/batch).
// errBatchTooLong: a /batch body holds more than Config.QueueBound requests.
var (
	errBadJSON      = errors.New("bad JSON")
	errBadJSONL     = errors.New("bad JSONL")
	errBatchTooLong = errors.New("serve: more requests than the admission bound")
)

// writeError answers err with its status: a body over the byte cap or a
// /batch over the admission bound 413, a panic (ErrKernel) 500, a
// malformed body or payload 400, an unknown kernel 404, backpressure 429,
// shutdown 503.  A client that has gone (a context error) gets nothing.
func writeError(w http.ResponseWriter, err error) {
	var status int
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig), errors.Is(err, errBatchTooLong):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrKernel):
		status = http.StatusInternalServerError
	case errors.Is(err, errBadJSON), errors.Is(err, errBadJSONL), errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrUnknownKernel):
		status = http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", retryAfter)
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	default:
		return
	}
	writeJSON(w, status, httpError{Error: err.Error()})
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

// handleInvoke reads and scans one request, admits its root, and writes
// what the root encoded.  The body is the root's once it is admitted.
func (s *Service) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if !s.admitClient(w, r, 1) {
		return
	}
	body, err := s.readBody(w, r)
	c := &call{ctx: r.Context(), body: body, encode: true, sink: make(chan result, 1)}
	if err == nil {
		err = scanOnly(body, &c.req, &c.pass)
	}
	if err != nil {
		err = fmt.Errorf("%w: %w", errBadJSON, err)
	} else if err = s.submit(c); err != nil {
		// The words, still in the body, stand before what refused them.
		if werr := c.pass.check(); werr != nil {
			err = fmt.Errorf("%w: %w", errBadJSON, werr)
		}
	}
	if err != nil {
		s.bufs.put(body)
		writeError(w, err)
		return
	}
	select {
	case res := <-c.sink:
		if res.err != nil {
			writeError(w, res.err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(res.line)))
		w.Write(res.line) // a failed write means the client left; there is nobody to tell
		s.bufs.put(res.line)
	case <-r.Context().Done(): // the root recycles what it owns; its response is left to the GC
	}
}

// batchError is the inline error line of the streaming /batch protocol:
// like httpError, but tagged with the index of the request it answers.
type batchError struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// handleBatch reads a JSONL stream of requests, submits one root for each,
// and streams each response back the moment its root completes, tagged with
// the request index (batchError for per-request failures).  Every line is
// checked, words included, before any is admitted: a malformed line, or more
// lines than the admission bound, fails the window.  The roots parse the
// words again, out of the body, which goes back to the free list once every
// root has answered, if all succeeded.  Once the first byte is written the
// stream stays 200; each line is flushed as it is sent.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	var calls []*call
	for i := skipSpace(body, 0); err == nil && i < len(body); i = skipSpace(body, i) {
		if len(calls) == s.cfg.QueueBound {
			err = errBatchTooLong
			break
		}
		c := &call{ctx: r.Context(), index: len(calls), encode: true}
		var n int
		n, err = scanRequest(body[i:], &c.req, &c.pass)
		if err = c.pass.first(err); err == nil {
			if err = c.pass.check(); err == nil {
				calls = append(calls, c)
				i += n
			}
		}
	}
	if err != nil {
		s.bufs.put(body)
		writeError(w, fmt.Errorf("%w at request %d: %w", errBadJSONL, len(calls)+1, err))
		return
	}
	if !s.admitClient(w, r, len(calls)) {
		s.bufs.put(body)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	errs := json.NewEncoder(w)
	sink := make(chan result, len(calls))
	for _, c := range calls {
		c.sink = sink
		if err := s.submit(c); err != nil {
			c.finish(result{err: err})
		}
	}
	recycle := true
	for range calls {
		res := <-sink
		if res.err != nil {
			recycle = false
			errs.Encode(batchError{Index: res.index, Error: res.err.Error()})
		} else {
			w.Write(res.line)
			s.bufs.put(res.line)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if recycle { // every root has answered: none reads the body any more
		s.bufs.put(body)
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
