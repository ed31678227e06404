// Package serve is the kernel-as-a-service front-end: a long-running
// service that schedules catalog kernel invocations (every kernel in the
// registry's invocable slice — all nine fj kernels) on a single shared
// internal/rt work-stealing pool.
//
// A request is one root on that pool running one fork-join program
// (Service.serve): parse the words of "input" (an fj loop over codec
// blocks), validate them or generate the seeded input, run the kernel, and
// encode the response into a recycled buffer (a loop over blocks).  The
// handler goroutine only reads the body, scans its envelope — and counts
// the words of "input", so the word cap refuses a request before anything
// is allocated for it — admits the root, waits, and writes what the root
// encoded; in-process Submit runs the program without the codec stages.
// Admission takes a slot in a bounded count of admitted roots no worker has
// started yet and injects the root (rt.Pool.Submit).
// The pool's workers are long-lived, so a request costs no spin-up and any
// number run at once: an idle worker starts a new request before it goes
// stealing, so a small request is not parked behind a large one.  The root
// releases its slot, checks that the caller is still there, runs the
// program and resolves the request the moment it finishes — which is what
// lets /batch stream responses in completion order (tagged with the request
// index).  Concurrent execution is byte-identical to per-request serial
// execution: the served kernels are deterministic, each root touches only
// its own request's slices, and the float codecs are exact bit casts.
//
// A request's buffers have one owner at a time: the handler until the root
// is admitted, then the root, which gives the body and its word slabs back
// to the service's free lists (wire.go) when it completes; only the encoded
// response returns to the handler, which recycles it once written.  (The
// roots of a /batch window only read the body; the handler recycles it
// once all have answered.)  A root that fails gives nothing back: the task
// that panicked may have left a forked task still writing.
//
// Admission control is that bounded count: when it is full the service
// answers with backpressure (ErrOverloaded, HTTP 429 + Retry-After) instead
// of queueing without limit, and a caller that abandons its request
// (context cancellation, client disconnect) before a worker starts it is
// dropped without its program ever running.  Counters and latency
// quantiles are exposed as JSON on /metrics (see Metrics); the HTTP surface
// (http.go) serves /invoke, /batch (JSONL stream), /kernels and /healthz.
//
// cmd/hbpserve wraps the package as a server binary, cmd/hbpload drives it
// with closed-loop load, and EXP16 (internal/bench) measures throughput and
// p50/p99 latency across offered load × pool size.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/fj"
	"repro/internal/rt"
)

// Service errors.  The HTTP layer maps them onto status codes; in-process
// callers test them with errors.Is.
var (
	// ErrUnknownKernel: the request names no invocable catalog kernel (404).
	ErrUnknownKernel = errors.New("serve: unknown kernel")
	// ErrBadRequest: the payload failed shape validation (400).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrOverloaded: the admission queue is full; retry later (429).
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrClosed: the service is shutting down (503).
	ErrClosed = errors.New("serve: closed")
	// ErrKernel: serving the request panicked, kernel or codec (500).
	ErrKernel = errors.New("serve: kernel failure")
)

// Request is one kernel invocation.  Either Input carries the payload
// words (the encodings are documented on registry.Invocable), or Input is
// absent and the service generates the catalog's seeded size-N workload —
// per-request seeding, so distinct requests get distinct reproducible
// inputs.  Verify asks the service to re-check the output serially against
// the kernel's verifier and report the outcome.
type Request struct {
	Kernel string  `json:"kernel"`
	Input  []int64 `json:"input,omitempty"`
	N      int64   `json:"n,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
	Verify bool    `json:"verify,omitempty"`
}

// Response is the result of one request.  Batched is always 1: every
// request is its own fork-join root (the field dates from when requests
// were coalesced and stays because it is the wire format).  Verified is
// present only when the request asked for verification.
// Index is the 0-based position of the request this response answers in
// its /batch window — the reorder key of the streaming protocol, 0 for
// single-request Submit/invoke.
type Response struct {
	Kernel   string  `json:"kernel"`
	N        int64   `json:"n"`
	Index    int     `json:"index"`
	Output   []int64 `json:"output"`
	Batched  int     `json:"batched"`
	Verified *bool   `json:"verified,omitempty"`
}

// Config sizes the service.  The zero value is usable: every field has a
// serving-grade default.
type Config struct {
	// Pool is the worker count of the shared rt.Pool (default GOMAXPROCS).
	Pool int
	// QueueBound caps the requests admitted but not yet started by a
	// worker; beyond it Submit answers ErrOverloaded (default 256).  It
	// also caps the requests of one /batch body (413 beyond).
	QueueBound int
	// MaxWords caps a single request's payload (explicit or generated) in
	// int64 words (default 1<<22, 32 MiB).
	MaxWords int64
	// RatePerSec enables per-client rate limiting on the HTTP surface: each
	// client (X-Client-ID header, falling back to the remote host) accrues
	// this many request tokens per second.  0 disables limiting (the
	// default — in-process Submit callers are never limited either way).
	RatePerSec float64
	// RateBurst caps a client's accrued tokens, i.e. the burst it may send
	// after idling (default max(1, ⌈RatePerSec⌉)).
	RateBurst int
}

func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = 0 // rt.NewPool treats 0 as GOMAXPROCS
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 256
	}
	if c.MaxWords <= 0 {
		c.MaxWords = 1 << 22
	}
	if c.RatePerSec > 0 && c.RateBurst <= 0 {
		c.RateBurst = int(math.Ceil(c.RatePerSec))
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	return c
}

// Service schedules invocable catalog kernels on one shared rt.Pool.
// Create with New, serve HTTP with Handler, call in-process with Submit,
// shut down with Close.
type Service struct {
	cfg     Config
	pool    *rt.Pool
	met     *Metrics
	limiter *multiLimiter   // nil when Config.RatePerSec is 0
	bufs    freeList[byte]  // recycled request bodies and encoded responses (wire.go)
	words   freeList[int64] // recycled word slabs: parsed or generated inputs, encoded outputs

	// mu orders admission against Close: no root reaches the pool after
	// Close has set closed, so the pool can be closed behind it.
	mu     sync.RWMutex
	closed bool

	// Tests only: hookKernel runs in a root right before its kernel (the
	// tests see what reached a kernel and hold a worker mid-request there),
	// hookBlock before each codec block a root codes, on any goroutine.
	hookKernel func(c *call)
	hookBlock  func(p *wirePass, b int)
}

// call is one request on its way through the service.  sink receives its
// result; the calls of a /batch window share one, buffered for all of them.
type call struct {
	ctx      context.Context
	req      Request            // Input: the caller's words (HTTP: nil, the root parses pass)
	kernel   registry.Invocable // set by prepare
	body     []byte             // /invoke: the body, the root's once admitted (/batch: the handler keeps it)
	pass     wirePass           // the words of "input" in body (pass.decode: not parsed yet), then the encode
	owned    bool               // in goes back to s.words: parsed, or generated for an encoded answer
	encode   bool               // HTTP: answer with an encoded line, recycling the output slab
	in       []int64            // the payload the kernel runs on, once parsed or generated
	index    int
	enqueued time.Time // admitted: what the latency histogram measures from
	sink     chan result
}

// result is what a call resolves to: the index of its request in its
// window and either a response or the error that kept the request from
// completing.
type result struct {
	index int
	resp  Response
	err   error
	line  []byte // HTTP: the encoded response, in place of resp
}

// finish delivers c's result; sink has room for it, caller or none.
func (c *call) finish(r result) {
	r.index = c.index
	c.sink <- r
}

// New creates a service; its pool's workers start with the first request.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:  cfg,
		pool: rt.NewPool(cfg.Pool, rt.Random),
		met:  &Metrics{},
	}
	if cfg.RatePerSec > 0 {
		s.limiter = newMultiLimiter(cfg.RatePerSec, cfg.RateBurst, rateClients)
		s.met.rates = s.limiter.snapshot
	}
	return s
}

// Close stops admission (new submissions get ErrClosed), lets requests
// already running finish, resolves admitted requests no worker has started
// with ErrClosed, and returns once the pool's workers have exited.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.pool.Close()
}

func (s *Service) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Metrics returns the service's live counter set.
func (s *Service) Metrics() *Metrics { return s.met }

// prepare resolves c's kernel and refuses a payload over the word cap
// before anything is allocated for it (for the matrix kernels n words of
// request generate 2n²).
func (s *Service) prepare(c *call) error {
	k, ok := registry.FindInvocable(c.req.Kernel)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownKernel, c.req.Kernel)
	}
	c.kernel = k
	words := int64(len(c.req.Input))
	switch {
	case c.pass.decode:
		words = int64(c.pass.n)
	case c.req.Input == nil:
		if w := k.InWords(c.req.N); w > s.cfg.MaxWords {
			return fmt.Errorf("%w: n = %d needs %d payload words, over the %d-word cap", ErrBadRequest, c.req.N, w, s.cfg.MaxWords)
		}
	}
	if words > s.cfg.MaxWords {
		return fmt.Errorf("%w: payload of %d words exceeds the %d-word cap", ErrBadRequest, words, s.cfg.MaxWords)
	}
	return nil
}

// submit prepares c, takes its slot among the admitted-but-not-started
// requests and injects its root, or reports why not without blocking.  Once
// it returns nil, the root owns c.
func (s *Service) submit(c *call) error {
	if err := s.prepare(c); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if s.met.queued.Add(1) > int64(s.cfg.QueueBound) {
		s.met.queued.Add(-1)
		s.met.rejected.Add(1)
		return ErrOverloaded
	}
	s.met.accepted.Add(1)
	c.enqueued = time.Now()
	s.pool.Submit(func(rc *rt.Ctx) { s.run(rc, c) })
	return nil
}

// Submit runs one request through the service: resolve the kernel, inject
// the request's root into the pool, and return the response.  It blocks
// until the response is ready or ctx is done; a request abandoned before a
// worker starts it never runs its kernel.
func (s *Service) Submit(ctx context.Context, req Request) (Response, error) {
	c := &call{ctx: ctx, req: req, sink: make(chan result, 1)}
	if err := s.submit(c); err != nil {
		return Response{}, err
	}
	select {
	case r := <-c.sink:
		return r.resp, r.err
	case <-ctx.Done():
		// The root will observe the cancelled context and drop the call
		// without running its kernel (or, if the kernel already started,
		// the buffered sink absorbs the unread result).
		return Response{}, ctx.Err()
	}
}

// run is one request's root task.  It releases the admission slot, drops
// the call if its caller is gone or the service closed while it waited for
// a worker, and otherwise runs its program, and resolves it in place.
func (s *Service) run(rc *rt.Ctx, c *call) {
	s.met.queued.Add(-1)
	var res result
	switch {
	case c.ctx.Err() != nil:
		s.met.canceled.Add(1)
		res.err = c.ctx.Err()
	case s.isClosed():
		s.met.failed.Add(1)
		res.err = ErrClosed
	default:
		fj.RunOn(rc, func(fc *fj.Ctx) { res = s.serve(fc, c) })
	}
	c.finish(res)
}

// serve is the program of one request, a fork-join computation on its
// root: parse, validate or generate, the kernel, verify, encode.  On
// success it gives back the slabs the request owned.  Its recover is the
// last line of defense (validation guarantees panic-free kernels): a panic
// in any task of the program fails just this request, since rt raises a
// forked task's panic at its Join, on the root, whichever worker ran it.
func (s *Service) serve(fc *fj.Ctx, c *call) (res result) {
	defer func() {
		if r := recover(); r != nil {
			res = result{err: fmt.Errorf("%w: %v", ErrKernel, r)}
		}
		if res.err != nil {
			s.met.failed.Add(1)
		}
	}()
	k := c.kernel
	c.in, c.pass.hook = c.req.Input, s.hookBlock
	var err error
	if c.pass.decode {
		c.in, c.owned = s.words.get(c.pass.n)[:c.pass.n], true
		if err = c.pass.parse(c.in, fc); err != nil {
			return result{err: fmt.Errorf("%w: %w", errBadJSON, err)}
		}
	} else if c.in == nil {
		c.in, err = k.Gen(c.req.N, c.req.Seed)
		c.owned = c.encode // only the codec path takes slabs from s.words
	}
	if err == nil {
		err = k.Validate(c.in)
	}
	if err != nil {
		return result{err: fmt.Errorf("%w: %v", ErrBadRequest, err)}
	}
	if s.hookKernel != nil {
		s.hookKernel(c)
	}
	// Started ticks before the kernel: a client must never read /metrics
	// after its response yet before its request was counted.
	s.met.started.Add(1)
	n := k.OutLen(c.in)
	var out []int64
	if c.encode {
		out = s.words.get(int(n))[:n] // uncleared: a kernel defines every word of its output
	} else {
		out = make([]int64, n) // the caller's to keep
	}
	k.Run(fc, c.in, out)
	resp := Response{Kernel: k.Name, N: n, Index: c.index, Output: out, Batched: 1}
	if c.req.Verify {
		v := k.Verify(c.in, out)
		resp.Verified = &v
	}
	if c.encode {
		res.line = c.pass.encode(s.bufs.get(responseBytes(k.Name, len(out))), &resp, fc)
		s.words.put(out)
		s.bufs.put(c.body)
	} else {
		res.resp = resp
	}
	if c.owned {
		s.words.put(c.in)
	}
	s.met.completed.Add(1)
	s.met.latency.observe(time.Since(c.enqueued).Nanoseconds())
	return res
}
