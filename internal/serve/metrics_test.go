package serve

import "testing"

// TestHistogramQuantiles pins the power-of-two histogram's contract: the
// reported quantile is an upper bound on the true one, within 2×.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram must report 0")
	}
	// 100 samples at 1000ns, 1 at 1_000_000ns.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	h.Observe(1_000_000)
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < 1000 || p50 >= 2048 {
		t.Errorf("p50 = %d, want in [1000, 2048)", p50)
	}
	if p99 < 1000 || p99 >= 2048 {
		t.Errorf("p99 = %d, want in [1000, 2048) (100 of 101 samples are 1000ns)", p99)
	}
	if p100 := h.Quantile(1.0); p100 < 1_000_000 || p100 >= 2_097_152 {
		t.Errorf("p100 = %d, want in [1000000, 2097152)", p100)
	}
	h.Observe(-5) // clamps, never panics
	if h.count.Load() != 102 {
		t.Errorf("count = %d, want 102", h.count.Load())
	}
}

// TestSnapshotCountsRoots pins how the Snapshot fields that date from batching
// read now that every request is its own root: Batches and BatchedRequests
// both count roots started, MaxBatch is 1 once anything ran.
func TestSnapshotCountsRoots(t *testing.T) {
	var m Metrics
	if s := m.Snapshot(); s.Batches != 0 || s.BatchedRequests != 0 || s.MaxBatch != 0 {
		t.Errorf("idle snapshot %+v, want all batch fields 0", s)
	}
	m.started.Add(3)
	m.queued.Add(2)
	s := m.Snapshot()
	if s.Batches != 3 || s.BatchedRequests != 3 || s.MaxBatch != 1 || s.QueueDepth != 2 {
		t.Errorf("snapshot %+v, want 3 batches / 3 requests / max 1 / depth 2", s)
	}
}
