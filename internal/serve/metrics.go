package serve

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// counter is one hot atomic counter padded onto a private cache line, so
// concurrent submitters bumping different counters never invalidate each
// other's lines — the §4.7 padding discipline internal/rt applies to its
// scheduler state, applied to the service's request-path counters (and
// checked statically by hbplint's falseshare analyzer).
type counter struct {
	atomic.Int64
	_ [56]byte
}

// Metrics is the service's counter set.  Everything is lock-free: padded
// atomic counters plus a power-of-two latency histogram, so the hot path
// adds a handful of uncontended atomic increments per request.
type Metrics struct {
	accepted  counter // admitted: a root was injected into the pool
	rejected  counter // turned away with backpressure (429)
	limited   counter // turned away by per-client rate limiting (429)
	canceled  counter // dropped before scheduling: caller abandoned the request
	completed counter // responses delivered
	failed    counter // resolved with a non-cancellation error
	started   counter // roots whose kernel a worker started
	queued    counter // gauge: admitted roots no worker has started yet

	latency histogram

	rates func() []ClientRate // per-client limiter counts, wired to the multiLimiter
}

// Snapshot is the JSON shape /metrics serves.  Latency quantiles come from
// the power-of-two histogram, so they are upper bounds with at most 2×
// resolution — honest enough for dashboards, cheap enough for the hot path.
//
// Batches, BatchedRequests and MaxBatch date from when requests were
// coalesced into batches and keep their names because they are the /metrics
// wire format: every request is now its own root, so Batches and
// BatchedRequests both count roots started and MaxBatch is 1 once anything
// ran.  QueueDepth is the count of admitted roots no worker has started.
type Snapshot struct {
	Accepted        int64        `json:"accepted"`
	Rejected        int64        `json:"rejected"`
	RateLimited     int64        `json:"rate_limited"`
	Canceled        int64        `json:"canceled"`
	Completed       int64        `json:"completed"`
	Failed          int64        `json:"failed"`
	Batches         int64        `json:"batches"`
	BatchedRequests int64        `json:"batched_requests"`
	MaxBatch        int64        `json:"max_batch"`
	QueueDepth      int          `json:"queue_depth"`
	LatencyP50NS    int64        `json:"latency_p50_ns"`
	LatencyP99NS    int64        `json:"latency_p99_ns"`
	Clients         []ClientRate `json:"clients,omitempty"`
}

// ClientRate is one client's rate-limiter counts as served on /metrics.
type ClientRate struct {
	Client  string `json:"client"`
	Allowed int64  `json:"allowed"`
	Limited int64  `json:"limited"`
}

// Snapshot captures the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	var rates []ClientRate
	if m.rates != nil {
		rates = m.rates()
	}
	started := m.started.Load()
	return Snapshot{
		Accepted:        m.accepted.Load(),
		Rejected:        m.rejected.Load(),
		RateLimited:     m.limited.Load(),
		Canceled:        m.canceled.Load(),
		Completed:       m.completed.Load(),
		Failed:          m.failed.Load(),
		Batches:         started,
		BatchedRequests: started,
		MaxBatch:        min(started, 1),
		QueueDepth:      int(m.queued.Load()),
		LatencyP50NS:    m.latency.quantile(0.50),
		LatencyP99NS:    m.latency.quantile(0.99),
		Clients:         rates,
	}
}

// histogram buckets latencies by their binary order of magnitude: bucket i
// holds observations with bit length i, i.e. values in [2^(i−1), 2^i).
// count — bumped on every observation, where the bucket increments scatter —
// gets a private cache line ahead of the bucket array.
type histogram struct {
	count   atomic.Int64
	_       [56]byte
	buckets [65]atomic.Int64
}

// observe records one latency sample.
func (h *histogram) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.count.Add(1)
}

// quantile returns an upper bound on the q-quantile (0 < q ≤ 1): the top of
// the bucket holding the rank-⌈q·count⌉ observation, or 0 with no samples.
func (h *histogram) quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return 1<<63 - 1
}
