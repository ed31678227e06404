package serve

import (
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Per-client rate limiting.  The HTTP layer identifies a client by its
// X-Client-ID header (falling back to the remote host) and charges one
// token per request before anything is decoded or admitted; a client over
// its rate gets 429 with a Retry-After honest about when a token next
// accrues.  One token bucket per client, refilled continuously at
// Config.RatePerSec up to Config.RateBurst.
//
// The limiter state is deliberately a handful of plain fields behind one
// mutex, not a padded per-client atomic array: admission happens once per
// request (not per kernel operation), so a single uncontended lock is
// cheap, and keeping the counters mutex-protected keeps the struct out of
// hbplint's falseshare and atomicmix territory by construction.

// clientIDHeader names the request header the limiter keys buckets on.
const clientIDHeader = "X-Client-ID"

// rateClients caps how many client buckets the service's limiter tracks;
// the least-recently-seen bucket is evicted beyond it.
const rateClients = 1024

// clientID extracts the limiter key for a request.
func clientID(r *http.Request) string {
	if id := r.Header.Get(clientIDHeader); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return host
	}
	if r.RemoteAddr != "" {
		return r.RemoteAddr
	}
	return "unknown"
}

// bucket is one client's token bucket and its lifetime counts.
type bucket struct {
	tokens  float64   // available tokens, ≤ burst
	refill  time.Time // when tokens was last brought current
	touched time.Time // last allowN call, drives eviction
	allowed int64
	limited int64
}

// multiLimiter is a token bucket per client, capped at max tracked clients
// (the least-recently-seen bucket is evicted for a new client, so an open
// set of client IDs cannot grow the map without bound).
type multiLimiter struct {
	rate  float64 // tokens per second
	burst float64
	max   int
	now   func() time.Time // injected in tests

	mu      sync.Mutex
	clients map[string]*bucket
}

func newMultiLimiter(rate float64, burst, maxClients int) *multiLimiter {
	return &multiLimiter{
		rate:    rate,
		burst:   float64(burst),
		max:     maxClients,
		now:     time.Now,
		clients: map[string]*bucket{},
	}
}

// allowN takes n tokens from client's bucket.  When the bucket is short it
// takes nothing and reports how long until n tokens will have accrued.
func (l *multiLimiter) allowN(client string, n int) (ok bool, retryAfter time.Duration) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.clients[client]
	if b == nil {
		if len(l.clients) >= l.max {
			l.evictOldest()
		}
		b = &bucket{tokens: l.burst, refill: now}
		l.clients[client] = b
	}
	if dt := now.Sub(b.refill).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.refill = now
	b.touched = now
	need := float64(n)
	if b.tokens >= need {
		b.tokens -= need
		b.allowed += int64(n)
		return true, 0
	}
	b.limited += int64(n)
	return false, time.Duration((need - b.tokens) / l.rate * float64(time.Second))
}

// evictOldest drops the least-recently-touched bucket.  Called with mu held.
func (l *multiLimiter) evictOldest() {
	var oldest string
	var when time.Time
	first := true
	for id, b := range l.clients {
		if first || b.touched.Before(when) {
			oldest, when, first = id, b.touched, false
		}
	}
	if !first {
		delete(l.clients, oldest)
	}
}

// snapshot returns every tracked client's counts, sorted by client ID so
// /metrics output is deterministic.
func (l *multiLimiter) snapshot() []ClientRate {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]ClientRate, 0, len(l.clients))
	for id, b := range l.clients {
		out = append(out, ClientRate{Client: id, Allowed: b.allowed, Limited: b.limited})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}
