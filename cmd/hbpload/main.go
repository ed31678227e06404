// Command hbpload is a closed-loop HTTP load generator for hbpserve.  In
// the default -mode invoke, each client goroutine posts one /invoke
// request, waits for the response, and immediately posts the next, for a
// fixed duration; -mode batch posts windows of -window requests as one
// JSONL /batch call and consumes the streamed responses as they arrive, so
// the report also carries time-to-first-response quantiles — the
// streaming protocol's payoff.  The report gives accepted/rejected/failed
// counts, throughput, and client-observed p50/p99 latency (measured with
// serve.Histogram, the power-of-two histogram the server exports).
//
//	hbpload -url http://localhost:8090 -kernel sort -n 256 -clients 8 -dur 5s
//	hbpload -mode batch -window 8 -kernel scan -clients 4 -dur 5s
//
// Rejections (429 backpressure or rate limiting) are counted and retried
// after honoring the server's Retry-After header — the server knows its
// flush interval and token accrual better than a client-side constant, and
// immediate re-submission would just re-fill the queue it was shed from.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

type loadRequest struct {
	Kernel string `json:"kernel"`
	N      int64  `json:"n"`
	Seed   uint64 `json:"seed"`
	Verify bool   `json:"verify,omitempty"`
}

// loadLine is one streamed /batch response line: either a response (Kernel
// set) or an inline per-request error, both tagged with the request index.
type loadLine struct {
	Index  int    `json:"index"`
	Error  string `json:"error"`
	Kernel string `json:"kernel"`
}

// retryAfter reads the server's Retry-After header (whole seconds, per the
// spec) off a 429, bounded to keep a closed-loop client responsive if the
// server suggests a long nap; absent or malformed falls back to 50ms.
func retryAfter(resp *http.Response) time.Duration {
	const fallback, most = 50 * time.Millisecond, 2 * time.Second
	sec, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || sec < 0 {
		return fallback
	}
	d := time.Duration(sec) * time.Second
	if d > most {
		d = most
	}
	return d
}

func main() {
	var (
		url     = flag.String("url", "http://localhost:8090", "hbpserve base URL")
		kernel  = flag.String("kernel", "sort", "kernel to invoke")
		n       = flag.Int64("n", 256, "problem size per request (server-side generated input)")
		clients = flag.Int("clients", 8, "concurrent closed-loop clients")
		dur     = flag.Duration("dur", 5*time.Second, "load duration")
		verify  = flag.Bool("verify", false, "ask the server to verify each output")
		mode    = flag.String("mode", "invoke", "invoke (one request per round trip) or batch (streamed JSONL windows)")
		window  = flag.Int("window", 8, "requests per /batch window in -mode batch")
	)
	flag.Parse()
	if *mode != "invoke" && *mode != "batch" {
		fmt.Fprintf(os.Stderr, "hbpload: -mode %q: want invoke or batch\n", *mode)
		os.Exit(2)
	}

	var (
		ok, rejected, failed atomic.Int64
		lat, ttfr            serve.Histogram
		wg                   sync.WaitGroup
	)
	deadline := time.Now().Add(*dur)
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			seed := uint64(c)*1e6 + 1
			for time.Now().Before(deadline) {
				if *mode == "batch" {
					seed = batchRound(client, *url, *kernel, *n, seed, *window, *verify,
						&ok, &rejected, &failed, &lat, &ttfr)
					continue
				}
				seed++
				body, _ := json.Marshal(loadRequest{Kernel: *kernel, N: *n, Seed: seed, Verify: *verify})
				start := time.Now()
				resp, err := client.Post(*url+"/invoke", "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					lat.Observe(time.Since(start).Nanoseconds())
					ok.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests:
					rejected.Add(1)
					time.Sleep(retryAfter(resp))
				default:
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	secs := dur.Seconds()
	fmt.Printf("mode=%s kernel=%s n=%d clients=%d dur=%s\n", *mode, *kernel, *n, *clients, *dur)
	fmt.Printf("ok=%d rejected=%d failed=%d\n", ok.Load(), rejected.Load(), failed.Load())
	fmt.Printf("throughput=%.1f req/s p50=%s p99=%s\n",
		float64(ok.Load())/secs,
		time.Duration(lat.Quantile(0.50)),
		time.Duration(lat.Quantile(0.99)))
	if *mode == "batch" {
		fmt.Printf("first-response p50=%s p99=%s\n",
			time.Duration(ttfr.Quantile(0.50)),
			time.Duration(ttfr.Quantile(0.99)))
	}
	if failed.Load() > 0 {
		os.Exit(1)
	}
}

// batchRound posts one window of requests as a JSONL /batch call and
// consumes the streamed response lines as they land: every successful line
// observes its own latency (time from POST to that line), and the first
// line additionally feeds the time-to-first-response histogram.  It
// returns the advanced seed.
func batchRound(client *http.Client, url, kernel string, n int64, seed uint64, window int, verify bool,
	ok, rejected, failed *atomic.Int64, lat, ttfr *serve.Histogram) uint64 {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < window; i++ {
		seed++
		enc.Encode(loadRequest{Kernel: kernel, N: n, Seed: seed, Verify: verify})
	}
	start := time.Now()
	resp, err := client.Post(url+"/batch", "application/jsonl", &buf)
	if err != nil {
		failed.Add(int64(window))
		return seed
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusTooManyRequests {
		rejected.Add(int64(window))
		time.Sleep(retryAfter(resp))
		return seed
	}
	if resp.StatusCode != http.StatusOK {
		failed.Add(int64(window))
		return seed
	}
	dec := json.NewDecoder(resp.Body)
	for lines := 0; ; lines++ {
		var l loadLine
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			failed.Add(int64(window - lines))
			return seed
		}
		now := time.Since(start).Nanoseconds()
		if lines == 0 {
			ttfr.Observe(now)
		}
		if l.Error != "" {
			failed.Add(1)
			continue
		}
		lat.Observe(now)
		ok.Add(1)
	}
	return seed
}
