// Package serve is the kernel-as-a-service front-end: a long-running
// service that schedules catalog kernel invocations (every kernel in the
// registry's invocable slice — all nine fj kernels) on a single shared
// internal/rt work-stealing pool.
//
// The request path is admission → submit → complete.  Submit validates the
// payload, takes a slot in a bounded count of admitted roots no worker has
// started yet, and injects one root per request into the pool
// (rt.Pool.Submit).  The pool's workers are long-lived, so a request costs
// no spin-up and any number run at once: an idle worker starts a new
// request before it goes stealing, so a small request is not parked behind
// a large one.  The root releases its slot, checks that the caller is still
// there, runs the kernel as a fork-join computation and resolves the
// request's channel the moment it finishes — which is what lets /batch
// stream responses in completion order (tagged with the request index)
// instead of holding a window until its slowest member lands.  Concurrent
// execution is byte-identical to per-request serial execution: the served
// kernels are deterministic, each root touches only its own request's input
// and output slices, and the float kernels' payload codecs are exact bit
// casts.
//
// Admission control is that bounded count: when it is full the service
// answers with backpressure (ErrOverloaded, HTTP 429 + Retry-After) instead
// of queueing without limit, and a caller that abandons its request
// (context cancellation, client disconnect) before a worker starts it is
// dropped without its kernel ever running.  Counters and latency quantiles
// are exposed as JSON on /metrics (see Metrics); the HTTP surface (http.go)
// also serves /invoke (single JSON request), /batch (JSONL stream), /kernels
// and /healthz.  Requests and responses cross the wire through the
// word-array codec of wire.go, not encoding/json, and the pool codes more
// than kernels: the words of a payload over one codec block are parsed and
// formatted as a blocked fj loop on it, outside admission, so a heavy
// request's decode and encode take whichever worker is idle.  A small
// payload is coded on its handler goroutine and never reaches the pool.
//
// cmd/hbpserve wraps the package as a server binary, cmd/hbpload drives it
// with closed-loop load, and EXP16 (internal/bench) measures throughput and
// p50/p99 latency across offered load × pool size × submission mode.
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
	// ErrKernel: the kernel failed while running (500).
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
// its submitted /batch (or SubmitBatch) window — the reorder key of the
// streaming protocol, 0 for single-request Submit/invoke.
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
	// worker; beyond it Submit answers ErrOverloaded (default 256).
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
	// RateClients caps how many client buckets the limiter tracks; the
	// least-recently-seen bucket is evicted beyond it (default 1024).
	RateClients int
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
	if c.RateClients <= 0 {
		c.RateClients = 1024
	}
	return c
}

// Service schedules invocable catalog kernels on one shared rt.Pool.
// Create with New, serve HTTP with Handler, call in-process with Submit,
// shut down with Close.
type Service struct {
	// invoking counts /invoke requests inside their handler and lastLone is
	// the slot pace last gave one that found no other (Unix ns); see
	// idleGap in http.go.  They lead the struct so each sits on its own
	// cache line.
	invoking counter
	lastLone counter

	cfg     Config
	pool    *rt.Pool
	met     *Metrics
	limiter *multiLimiter // nil when Config.RatePerSec is 0
	bufs    bufList       // recycled request-body and response buffers (wire.go)
	passes  passList      // recycled codec passes (wire.go)

	// mu orders admission against Close: no root, a kernel's or a codec
	// pass's, reaches the pool after Close has set closed, so the pool can
	// be closed behind it.
	mu     sync.RWMutex
	closed bool

	// hookKernel, when set (tests only), runs on the worker that started a
	// request's root, after the abandoned/closed check and right before the
	// kernel — where the tests observe what reached a kernel and hold a
	// worker mid-request.
	hookKernel func(c *call)
	// hookBlock, when set (tests only), runs before each block of a codec
	// pass the service codes (Service.code, wire.go), on whichever
	// goroutine codes the block.
	hookBlock func()
}

// call is one admitted request: the decoded payload, the resolved kernel,
// and the channel its result comes back on.  done is buffered so a worker
// never blocks on a caller that has already abandoned the request.
type call struct {
	ctx      context.Context
	kernel   registry.Invocable
	in       []int64
	verify   bool
	enqueued time.Time
	done     chan result
}

// result is what a call resolves to: a response or the error that kept the
// kernel from running (cancellation, shutdown, a kernel failure).
type result struct {
	resp Response
	err  error
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
		s.limiter = newMultiLimiter(cfg.RatePerSec, cfg.RateBurst, cfg.RateClients)
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

// admit takes c's slot among the admitted-but-not-started requests and
// injects its root into the pool, or reports ErrClosed / ErrOverloaded
// without blocking.
func (s *Service) admit(c *call) error {
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
	s.pool.Submit(func(rc *rt.Ctx) { s.run(rc, c) })
	return nil
}

// Submit runs one request through the service: resolve the kernel, decode
// and validate the payload, inject the request's root into the pool, and
// return the response.  It blocks until the response is ready or ctx is
// done; a request abandoned before a worker starts it never runs its kernel.
func (s *Service) Submit(ctx context.Context, req Request) (Response, error) {
	k, ok := registry.FindInvocable(req.Kernel)
	if !ok {
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownKernel, req.Kernel)
	}
	in := req.Input
	if in == nil {
		// Size the generated payload before allocating anything: for the
		// matrix kernels n words of request expand to 2n² words of payload.
		if k.InWords(req.N) > s.cfg.MaxWords {
			return Response{}, fmt.Errorf("%w: n = %d needs %d payload words, over the %d-word cap", ErrBadRequest, req.N, k.InWords(req.N), s.cfg.MaxWords)
		}
		var err error
		in, err = k.Gen(req.N, req.Seed)
		if err != nil {
			return Response{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if int64(len(in)) > s.cfg.MaxWords {
		return Response{}, fmt.Errorf("%w: payload of %d words exceeds the %d-word cap", ErrBadRequest, len(in), s.cfg.MaxWords)
	}
	if err := k.Validate(in); err != nil {
		return Response{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	c := &call{
		ctx:      ctx,
		kernel:   k,
		in:       in,
		verify:   req.Verify,
		enqueued: time.Now(),
		done:     make(chan result, 1),
	}
	if err := s.admit(c); err != nil {
		return Response{}, err
	}
	select {
	case r := <-c.done:
		return r.resp, r.err
	case <-ctx.Done():
		// The root will observe the cancelled context and drop the call
		// without running its kernel (or, if the kernel already started,
		// the buffered done channel absorbs the unread result).
		return Response{}, ctx.Err()
	}
}

// BatchResult is one streamed result of SubmitBatch: the index of the
// request it answers (also stamped on Resp.Index) and either a response or
// the error that kept that request from completing.
type BatchResult struct {
	Index int
	Resp  Response
	Err   error
}

// SubmitBatch submits reqs concurrently and returns a channel delivering
// each result the moment its root completes — in completion order, not request order, each tagged
// with its request index.  The channel closes after len(reqs) results.
// This is the in-process face of the streaming /batch protocol; EXP16's
// streaming arm and cmd/hbpload's batch mode both consume it.
func (s *Service) SubmitBatch(ctx context.Context, reqs []Request) <-chan BatchResult {
	out := make(chan BatchResult, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(ctx, reqs[i])
			resp.Index = i
			out <- BatchResult{Index: i, Resp: resp, Err: err}
		}(i)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// run is one request's root task.  It releases the admission slot, drops
// the call if its caller is gone or the service closed while it waited for
// a worker, and otherwise runs the kernel as a fork-join computation on the
// shared pool and resolves the request's channel in place — per-request
// completion, the property the streaming /batch surface is built on.
func (s *Service) run(rc *rt.Ctx, c *call) {
	s.met.queued.Add(-1)
	if err := c.ctx.Err(); err != nil {
		s.met.canceled.Add(1)
		c.done <- result{err: err}
		return
	}
	if s.isClosed() {
		s.met.failed.Add(1)
		c.done <- result{err: ErrClosed}
		return
	}
	if s.hookKernel != nil {
		s.hookKernel(c)
	}
	// Started ticks before the kernel: a client must never read /metrics
	// after its response yet before its request was counted.
	s.met.started.Add(1)
	out := make([]int64, c.kernel.OutLen(c.in))
	var kerr error
	func() {
		// Validation guarantees panic-free kernels; this recover is a
		// last line of defense for the root's own goroutine so a bug
		// fails one request, not the process.  (A panic inside a forked
		// grandchild still crashes — by design: it is a program bug.)
		defer func() {
			if r := recover(); r != nil {
				kerr = fmt.Errorf("%w: %v", ErrKernel, r)
			}
		}()
		fj.RunOn(rc, func(fc *fj.Ctx) { c.kernel.Run(fc, c.in, out) })
	}()
	if kerr != nil {
		s.met.failed.Add(1)
		c.done <- result{err: kerr}
		return
	}
	resp := Response{
		Kernel:  c.kernel.Name,
		N:       int64(len(out)),
		Output:  out,
		Batched: 1,
	}
	if c.verify {
		v := c.kernel.Verify(c.in, out)
		resp.Verified = &v
	}
	s.met.completed.Add(1)
	s.met.latency.observe(time.Since(c.enqueued).Nanoseconds())
	c.done <- result{resp: resp}
}
