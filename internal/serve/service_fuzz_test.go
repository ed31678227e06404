package serve

// FuzzService drives the service with fuzzed request sizes, arrival
// orders/jitter, kernel interleavings and pool sizes, pinning the two
// invariants every serving path depends on: every accepted request resolves
// to exactly one response, and each response contains exactly that
// request's output — concurrent roots share workers and arenas but no
// words, so there is no cross-request bleed.

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fuzzPlan decodes one fuzz byte per request: the low five bits size the
// payload, bit 5 picks the kernel, and the top two bits add arrival jitter.
func fuzzPlan(b byte) (kernel string, n int, jitter time.Duration) {
	n = int(b % 32)
	kernel = "sort"
	if b&0x20 != 0 {
		kernel = "scan"
	}
	return kernel, n, time.Duration(b>>6) * 50 * time.Microsecond
}

// fuzzInput builds request i's payload: a strictly request-specific word
// pattern, so any word leaking across requests breaks the expected output
// exactly.
func fuzzInput(i, n int) []int64 {
	in := make([]int64, n)
	for j := range in {
		in[j] = int64(i+1)<<8 - int64(j) // descending, disjoint across requests
	}
	return in
}

// fuzzExpect computes request i's serial expectation without any kernel
// code: ascending sort for "sort", prefix sums for "scan".
func fuzzExpect(kernel string, in []int64) []int64 {
	out := append([]int64(nil), in...)
	switch kernel {
	case "sort":
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	case "scan":
		var s int64
		for j := range out {
			s += out[j]
			out[j] = s
		}
	}
	return out
}

func FuzzService(f *testing.F) {
	// Seed corpus: request counts around the pool sizes, kernel
	// alternation, empty payloads, a single request, and jittered arrivals.
	// The two trailing arguments together pick the pool size, 1 to 4.
	f.Add([]byte{3, 1, 4, 1, 5}, uint8(4), uint16(200))
	f.Add([]byte{7, 7, 7, 7}, uint8(4), uint16(0))
	f.Add([]byte{9, 9, 9}, uint8(4), uint16(50))
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(4), uint16(100))
	f.Add([]byte{0x21, 2, 0x23, 4, 0x25}, uint8(2), uint16(300))          // sort/scan interleaved
	f.Add([]byte{0, 0x20, 0}, uint8(3), uint16(100))                      // empty payloads
	f.Add([]byte{31}, uint8(1), uint16(0))                                // single request
	f.Add([]byte{0xff, 0x81, 0x42, 0xc3, 5, 0x66}, uint8(8), uint16(500)) // jittered mix
	f.Fuzz(func(t *testing.T, plan []byte, width uint8, mix uint16) {
		if len(plan) > 24 {
			plan = plan[:24]
		}
		svc := New(Config{
			Pool:       (int(width)+int(mix))%4 + 1,
			QueueBound: len(plan) + 1,
		})
		defer svc.Close()

		var responses atomic.Int64
		var wg sync.WaitGroup
		for i, b := range plan {
			kernel, n, jitter := fuzzPlan(b)
			in := fuzzInput(i, n)
			wg.Add(1)
			go func(i int, kernel string, in []int64, jitter time.Duration) {
				defer wg.Done()
				time.Sleep(jitter)
				resp, err := svc.Submit(context.Background(), Request{Kernel: kernel, Input: in})
				if err != nil {
					// The queue is sized for every request; nothing may be
					// rejected or lost.
					t.Errorf("request %d rejected: %v", i, err)
					return
				}
				responses.Add(1)
				want := fuzzExpect(kernel, in)
				if len(resp.Output) != len(want) {
					t.Errorf("request %d: got %d output words, want %d", i, len(resp.Output), len(want))
					return
				}
				for j := range want {
					if resp.Output[j] != want[j] {
						t.Errorf("request %d (%s, n=%d): output[%d] = %d, want %d — cross-request bleed",
							i, kernel, len(in), j, resp.Output[j], want[j])
						return
					}
				}
			}(i, kernel, in, jitter)
		}
		wg.Wait()
		if got := responses.Load(); got != int64(len(plan)) {
			t.Fatalf("%d responses for %d accepted requests", got, len(plan))
		}
		m := svc.Metrics().Snapshot()
		if m.Completed != int64(len(plan)) || m.Accepted != int64(len(plan)) {
			t.Fatalf("metrics disagree with the plan: %+v", m)
		}
	})
}
