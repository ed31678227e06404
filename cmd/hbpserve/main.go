// Command hbpserve runs the kernel-as-a-service front-end (internal/serve):
// a long-running HTTP server scheduling every invocable catalog kernel (all
// nine fj kernels — GET /kernels lists them with their payload encodings)
// on one shared internal/rt work-stealing pool of long-lived workers, one
// fork-join root per request.
//
//	hbpserve -addr :8090 -pool 8 -queue 512 -rate 100
//
// Endpoints: POST /invoke (one JSON request), POST /batch (JSONL in, JSONL
// streamed back in completion order, each line tagged with its request
// index), GET /metrics, GET /kernels, GET /healthz.  Overload answers 429
// with a Retry-After header; a body over the byte cap derived from
// -maxwords answers 413; disconnected clients whose request no worker has
// started never get their kernel run; with -rate set, each client
// (X-Client-ID header, falling back to the remote host) is limited to that
// many requests per second with burst -burst, and per-client counts appear
// on /metrics.  Drive it with cmd/hbpload; EXP16 measures the same serving
// stack in-process.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Connection hygiene: a client gets this long to send its request headers,
// and an idle keep-alive connection is dropped after idleTimeout.  (No
// whole-request read/write timeouts: a legal body is tens of megabytes and
// /batch responses stream for as long as the kernels run.)
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr  = flag.String("addr", ":8090", "listen address")
		pool  = flag.Int("pool", 0, "workers in the shared rt pool (0 = GOMAXPROCS)")
		queue = flag.Int("queue", 256, "bound on requests admitted but not yet started (beyond it: 429)")
		words = flag.Int64("maxwords", 1<<22, "per-request payload cap in int64 words")
		rate  = flag.Float64("rate", 0, "per-client requests/second (0 = no rate limiting)")
		burst = flag.Int("burst", 0, "per-client burst (0 = ceil of -rate)")
	)
	flag.Parse()

	svc := serve.New(serve.Config{
		Pool:       *pool,
		QueueBound: *queue,
		MaxWords:   *words,
		RatePerSec: *rate,
		RateBurst:  *burst,
	})
	server := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	done := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "hbpserve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Handlers first, then the service: Close joins the pool's workers
		// once the requests Shutdown waited for have resolved.
		server.Shutdown(ctx)
		svc.Close()
		close(done)
	}()

	fmt.Fprintf(os.Stderr, "hbpserve: listening on %s (pool %d, queue %d)\n", *addr, *pool, *queue)
	if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "hbpserve:", err)
		os.Exit(1)
	}
	<-done
}
