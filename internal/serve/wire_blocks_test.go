package serve

// Gates for the blocked codec of wire.go: with codecBlock lowered so that
// every payload crosses block boundaries, the blocked decode returns the
// words and the error text of the one-block decode, inline and on a pool;
// the blocked encode is json.Marshal's bytes; a panic in a block fails only
// its request; a request is one root, its codec included, and a small one
// codes inline in it; and a /batch body is capped at the admission bound.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/algos/registry"
)

// underBlock runs fn with codecBlock set to size.
func underBlock(size int, fn func()) {
	defer func(old int) { codecBlock = old }(codecBlock)
	codecBlock = size
	fn()
}

// fuzzBlocks are the codecBlock values the fuzz targets rerun every input
// under: one byte (a block per word), and sizes whose boundaries fall
// inside words, on their commas and in the white space around them.
var fuzzBlocks = []int{1, 3, 8}

// errText is err's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkBlockedDecode decodes body as one block, then in blocks of each of
// sizes, inline and on svc's pool: every decode must give the one-block
// request and error text.
func checkBlockedDecode(t *testing.T, svc *Service, body []byte, sizes []int) {
	t.Helper()
	var want Request
	var wantErr error
	underBlock(len(body)+1, func() { wantErr = decodeOnly(body, &want, nil) })
	for _, size := range sizes {
		for _, s := range []*Service{nil, svc} {
			var got Request
			var err error
			underBlock(size, func() { err = decodeOnly(body, &got, s) })
			if errText(err) != errText(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("block %d, pool %v: decoded %#v, %q; one block: %#v, %q; body %.200q",
					size, s != nil, got, errText(err), want, errText(wantErr), body)
			}
		}
	}
}

// checkBlockedEncode encodes r in blocks of each of sizes, inline and on
// svc's pool, after a prefix and into a buffer of exactly responseBytes:
// every encoding must be json.Marshal(r) and a newline.
func checkBlockedEncode(t *testing.T, svc *Service, r *Response, sizes []int) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	for _, size := range sizes {
		for _, s := range []*Service{nil, svc} {
			for _, dst := range [][]byte{[]byte("kept"), make([]byte, 0, responseBytes(r.Kernel, len(r.Output)))} {
				prefix := string(dst)
				var got []byte
				underBlock(size, func() { got = encodeResponse(dst, r, s) })
				if string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want) {
					t.Fatalf("block %d, pool %v: encoded %.200q; json.Marshal %.200q", size, s != nil, got, want)
				}
			}
		}
	}
}

// TestBlockedCodecMatchesUnblocked runs the blocked codec, every block size
// from one byte to past the payload, over the table of words and of
// malformed arrays whose answer depends on where a block starts.
func TestBlockedCodecMatchesUnblocked(t *testing.T) {
	svc := New(Config{Pool: 2})
	defer svc.Close()
	sizes := make([]int, 64)
	for i := range sizes {
		sizes[i] = i + 1
	}
	long := make([]int64, 300)
	r := rand.New(rand.NewPCG(1, 2))
	for i := range long {
		long[i] = int64(r.Uint64()) >> r.IntN(64)
	}
	for _, tc := range []struct{ name, input string }{
		{"negative words", "[-1,-22,-333,-4444,-55555,-666666]"},
		{"extremes and zeros", "[-9223372036854775808,0,9223372036854775807,0,-9223372036854775808]"},
		{"white space around commas", "[ 1 ,\t2\n, 3\r\n,  4 ,5 ]"},
		{"double comma", "[1,2,,3]"},
		{"only commas", "[,,,,,,,,]"},
		{"leading comma", "[,1,2]"},
		{"trailing comma", "[1,2,]"},
		{"null element", "[1,2,null,3]"},
		{"null alone", "[null]"},
		{"empty", "[]"},
		{"empty, spaced", "[ \n ]"},
		{"one word", "[7]"},
		{"one word, spaced", "[ -7 ]"},
		{"missing comma", "[1,2,3 4,5]"},
		{"junk after the last word", "[1,2 3]"},
		{"fraction", "[1,2,3.5,4]"},
		{"leading zero", "[1,2,03]"},
		{"over int64 in a late word", "[1,2,3,4,5,6,7,8,9,9223372036854775808]"},
		{"twenty digits", "[1,-99999999999999999999,2]"},
		{"two errors", "[1,x,2,y]"},
		{"unterminated", "[1,2,3"},
		{"long", string(mustJSON(long))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(`{"kernel":"sort","input":` + tc.input + `}`)
			checkBlockedDecode(t, svc, body, sizes)
			var req Request
			if decodeOnly(body, &req, nil) == nil && req.Input != nil {
				checkBlockedEncode(t, svc, &Response{Kernel: "sort", N: int64(len(req.Input)), Output: req.Input, Batched: 1}, sizes)
			}
		})
	}
	// A comma exactly where the block-start search begins: at block size 2
	// the second block starts past the comma at offset 2 of the array.
	body := []byte(`{"input":[12,345,6]}`)
	at := bytes.IndexByte(body, '[') + 1
	if body[at+2] != ',' {
		t.Fatal("the boundary case lost its comma")
	}
	checkBlockedDecode(t, svc, body, []int{2})
	for _, r := range []*Response{{}, {Kernel: "sort", Output: []int64{}}} {
		checkBlockedEncode(t, svc, r, sizes)
	}
}

// TestBufListFullKeepsLarger: a list filled with small buffers still takes
// a large one, in place of its smallest, and refuses one no larger.
func TestBufListFullKeepsLarger(t *testing.T) {
	var l freeList[byte]
	for i := 0; i < maxFreeBufs; i++ {
		l.put(make([]byte, 0, 1<<10+i))
	}
	l.put(make([]byte, 0, 1<<10))
	l.put(make([]byte, 0, 1<<20))
	if len(l.free) != maxFreeBufs {
		t.Fatalf("%d buffers kept, want %d", len(l.free), maxFreeBufs)
	}
	least := 1 << 20
	for _, b := range l.free {
		least = min(least, cap(b))
	}
	if b := l.get(1 << 20); cap(b) != 1<<20 || least != 1<<10+1 {
		t.Fatalf("get(1 MiB) = cap %d, smallest kept %d; want the 1 MiB buffer, kept in place of the 1024-byte one", cap(b), least)
	}
}

// TestPutIntMatchesStrconv: the pair-table formatter is strconv.FormatInt at
// every digit-count boundary, both signs, and on random words.
func TestPutIntMatchesStrconv(t *testing.T) {
	ws := []int64{0, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for p := int64(1); p <= 1e18; p *= 10 {
		ws = append(ws, p-1, p, p+1, -p+1, -p, -p-1)
	}
	for k := 0; k < 63; k++ {
		ws = append(ws, 1<<k, 1<<k-1, -1<<k)
	}
	r := rand.New(rand.NewPCG(3, 4))
	for range 10000 {
		ws = append(ws, int64(r.Uint64())>>r.IntN(64))
	}
	buf := make([]byte, 24)
	for _, w := range ws {
		if got, want := string(buf[:putInt(buf, 0, w)]), strconv.FormatInt(w, 10); got != want {
			t.Fatalf("putInt(%d) = %q, want %q", w, got, want)
		}
	}
}

// TestCodecPanicFailsItsRequest: a panic in a block a pool worker codes —
// where net/http's recover does not reach — fails just its request with
// 500, decode or encode, /invoke or a /batch line, and the service goes on.
func TestCodecPanicFailsItsRequest(t *testing.T) {
	svc := New(Config{Pool: 2})
	defer svc.Close()
	var panicBlock, armAtKernel atomic.Bool // one-shot each
	svc.hookBlock = func(*wirePass, int) {
		if panicBlock.CompareAndSwap(true, false) {
			panic("codec test panic")
		}
	}
	svc.hookKernel = func(*call) { // the kernel runs between decode and encode
		if armAtKernel.CompareAndSwap(true, false) {
			panicBlock.Store(true)
		}
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	in := make([]int64, 8192) // ≈ 40 KB of body and four encode blocks
	for i := range in {
		in[i] = int64(len(in) - i)
	}
	invoke := func(what string, want int) {
		t.Helper()
		resp, hr := postInvoke(t, ts.URL, Request{Kernel: "sort", Input: in})
		if hr.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", what, hr.StatusCode, want)
		}
		if want == http.StatusOK && (len(resp.Output) != len(in) || resp.Output[0] != 1) {
			t.Fatalf("%s: wrong output", what)
		}
	}
	panicBlock.Store(true)
	invoke("decode panic", http.StatusInternalServerError)
	invoke("after the decode panic", http.StatusOK)
	armAtKernel.Store(true)
	invoke("encode panic", http.StatusInternalServerError)
	invoke("after the encode panic", http.StatusOK)

	armAtKernel.Store(true)
	line := mustJSON(Request{Kernel: "sort", Input: in})
	hr, err := http.Post(ts.URL+"/batch", "application/jsonl", bytes.NewReader(bytes.Join([][]byte{line, line}, []byte("\n"))))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	text, _ := io.ReadAll(hr.Body)
	if failed := strings.Count(string(text), "kernel failure"); hr.StatusCode != http.StatusOK || failed != 1 || bytes.Count(text, []byte("\n")) != 2 {
		t.Fatalf("/batch: status %d, %d failed lines in %.300q; want 200, one of two lines failed", hr.StatusCode, failed, text)
	}
	invoke("after the /batch panic", http.StatusOK)
}

// TestStolenBlockPanicFailsItsRequest: at Pool: 2, a panic in a codec block
// a thief codes fails only its request, with 500, decode or encode, and the
// next request succeeds.  The root codes block 0 first and waits there
// until the first block of the half it forked has started, so a thief
// codes that block, which panics.  The failed request's body is back in
// the service's free list when the 500 arrives.
func TestStolenBlockPanicFailsItsRequest(t *testing.T) {
	defer func(old int) { codecBlock = old }(codecBlock)
	codecBlock = 1 << 10
	svc := New(Config{Pool: 2})
	defer svc.Close()
	var armDecode, armEncode, started, alone atomic.Bool
	var body atomic.Pointer[byte] // the request body the decode pass reads
	svc.hookBlock = func(p *wirePass, b int) {
		if p.decode && b == 0 {
			body.Store(unsafe.SliceData(p.buf))
		}
		armed := &armDecode
		if !p.decode {
			armed = &armEncode
		}
		if !armed.Load() {
			return
		}
		switch b {
		case 0:
			for deadline := time.Now().Add(10 * time.Second); !started.Load(); runtime.Gosched() {
				if time.Now().After(deadline) {
					alone.Store(true) // no thief took the forked half
					return
				}
			}
		case len(p.blocks) / 2:
			armed.Store(false)
			started.Store(true)
			panic("stolen block panic")
		}
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	in := make([]int64, 2048) // ≈ 10 KB of body: ten decode blocks, sixteen encode blocks
	for i := range in {
		in[i] = int64(len(in) - i)
	}
	invoke := func(what string, want int) {
		t.Helper()
		resp, hr := postInvoke(t, ts.URL, Request{Kernel: "sort", Input: in})
		if hr.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", what, hr.StatusCode, want)
		}
		if want == http.StatusOK && (len(resp.Output) != len(in) || resp.Output[0] != 1) {
			t.Fatalf("%s: wrong output", what)
		}
	}
	for _, arm := range []struct {
		name  string
		armed *atomic.Bool
	}{{"decode", &armDecode}, {"encode", &armEncode}} {
		started.Store(false)
		arm.armed.Store(true)
		steals := svc.pool.Steals()
		invoke(arm.name+" panic in a stolen block", http.StatusInternalServerError)
		if alone.Load() || arm.armed.Load() || svc.pool.Steals() == steals {
			t.Fatalf("%s: the panicking block was not a thief's", arm.name)
		}
		svc.bufs.mu.Lock()
		back := slices.ContainsFunc(svc.bufs.free, func(b []byte) bool { return unsafe.SliceData(b) == body.Load() })
		svc.bufs.mu.Unlock()
		if !back {
			t.Errorf("%s: the failed request's body is not back in the free list", arm.name)
		}
		invoke("after the "+arm.name+" panic", http.StatusOK)
	}
}

// TestSmallRequestsCodeInline: a request of one block codes it inline in
// its root — a 256-word /invoke and every line of an 8-line /batch grow the
// pool's executed-task count by exactly their roots (a 256-word sort does
// not fork) — while a large one's root forks its codec blocks.
func TestSmallRequestsCodeInline(t *testing.T) {
	svc := New(Config{Pool: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	small := make([]int64, 256)
	for i := range small {
		small[i] = int64(i*7919%256) << 40
	}
	grows := func(run func()) int64 {
		before := svc.pool.Executed()
		run()
		return svc.pool.Executed() - before
	}
	invoke := func(in []int64) func() {
		return func() {
			if _, hr := postInvoke(t, ts.URL, Request{Kernel: "sort", Input: in}); hr.StatusCode != http.StatusOK {
				t.Fatalf("status %d", hr.StatusCode)
			}
		}
	}
	invoke(small)() // start the workers
	for i := 0; i < 3; i++ {
		if got := grows(invoke(small)); got != 1 {
			t.Fatalf("a 256-word /invoke ran %d pool tasks, want 1 (its root)", got)
		}
	}
	var body bytes.Buffer
	for i := 0; i < 8; i++ {
		body.Write(mustJSON(Request{Kernel: "sort", Input: small}))
		body.WriteByte('\n')
	}
	got := grows(func() {
		hr, err := http.Post(ts.URL+"/batch", "application/jsonl", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		if text, _ := io.ReadAll(hr.Body); bytes.Count(text, []byte(`"output"`)) != 8 {
			t.Fatalf("/batch answered %.300q", text)
		}
	})
	if got != 8 {
		t.Fatalf("an 8-line /batch ran %d pool tasks, want 8 (its roots)", got)
	}
	large := make([]int64, 1<<14)
	for i := range large {
		large[i] = int64(len(large) - i)
	}
	roots := svc.pool.Roots()
	if got := grows(invoke(large)); got < 3 || svc.pool.Roots() != roots+1 {
		t.Fatalf("a %d-word /invoke ran %d pool tasks from %d roots, want one root forking its kernel and codec blocks",
			len(large), got, svc.pool.Roots()-roots)
	}
}

// TestOneRootPerRequest: a request reaches the pool as exactly one admitted
// root, its codec included.  With blocks lowered so that every payload
// spans many, a multi-block /invoke and each line of a /batch grow the
// pool's root count and the admitted count by one, while their words are
// coded block by block.
func TestOneRootPerRequest(t *testing.T) {
	defer func(old int) { codecBlock = old }(codecBlock)
	codecBlock = 256
	svc := New(Config{Pool: 2})
	defer svc.Close()
	var blocks atomic.Int64
	svc.hookBlock = func(*wirePass, int) { blocks.Add(1) }
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	in := make([]int64, 4096) // ≈ 20 KB of body, 128 encode blocks
	for i := range in {
		in[i] = int64(len(in) - i)
	}
	grows := func(run func()) (roots, admitted, coded int64) {
		r, a, b := svc.pool.Roots(), svc.Metrics().Snapshot().Accepted, blocks.Load()
		run()
		return svc.pool.Roots() - r, svc.Metrics().Snapshot().Accepted - a, blocks.Load() - b
	}
	roots, admitted, coded := grows(func() {
		resp, hr := postInvoke(t, ts.URL, Request{Kernel: "sort", Input: in})
		if hr.StatusCode != http.StatusOK || len(resp.Output) != len(in) || resp.Output[0] != 1 {
			t.Fatalf("/invoke: status %d, wrong output", hr.StatusCode)
		}
	})
	if roots != 1 || admitted != 1 || coded < 100 {
		t.Fatalf("a multi-block /invoke took %d roots, %d admissions, %d codec blocks; want 1, 1, ≥ 100", roots, admitted, coded)
	}
	const lines = 5
	var body bytes.Buffer
	for i := 0; i < lines; i++ {
		body.Write(mustJSON(Request{Kernel: "sort", Input: in[i:]}))
		body.WriteByte('\n')
	}
	roots, admitted, coded = grows(func() {
		hr, err := http.Post(ts.URL+"/batch", "application/jsonl", &body)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		if text, _ := io.ReadAll(hr.Body); bytes.Count(text, []byte(`"output"`)) != lines {
			t.Fatalf("/batch answered %.300q", text)
		}
	})
	if roots != lines || admitted != lines || coded < 100*lines {
		t.Fatalf("a %d-line /batch took %d roots, %d admissions, %d codec blocks; want %d, %d, ≥ %d",
			lines, roots, admitted, coded, lines, lines, 100*lines)
	}
}

// TestBatchCappedAtQueueBound: a /batch body of more requests than the
// admission bound is refused with 413 before any is admitted — values may
// abut, so a small body holds many — with nothing submitted and no
// goroutine left behind, while a body of exactly the bound is served.
func TestBatchCappedAtQueueBound(t *testing.T) {
	const bound = 4
	svc := New(Config{Pool: 1, QueueBound: bound})
	defer svc.Close()
	h := svc.Handler()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body)))
		return rec
	}
	base := runtime.NumGoroutine()
	if rec := post(strings.Repeat("{}", bound+1)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d abutting {} with QueueBound %d: status %d, want 413: %s", bound+1, bound, rec.Code, rec.Body)
	}
	if roots, m := svc.pool.Roots(), svc.Metrics().Snapshot(); roots != 0 || m.Accepted != 0 {
		t.Fatalf("the refused window submitted %d roots, admitted %d", roots, m.Accepted)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the refused window, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	rec := post(strings.Repeat(`{"kernel":"sort","n":4}`, bound))
	if rec.Code != http.StatusOK || bytes.Count(rec.Body.Bytes(), []byte(`"output"`)) != bound || svc.pool.Roots() != bound {
		t.Fatalf("a window of exactly the bound: status %d, %d roots: %s", rec.Code, svc.pool.Roots(), rec.Body)
	}
}

// BenchmarkWireCodec times the codec on the three heavy payloads of the
// benchmark's serve_mixed workload (sort 65536, matmul 128, fft 16384),
// decoding the request body and encoding the kernel's response, each
// inline (every block on the calling goroutine) and on a 2-worker service
// pool.  Profile one with
//
//	go test -run '^$' -bench 'WireCodec/decode/sort65536/p2' -cpuprofile cpu.out ./internal/serve
func BenchmarkWireCodec(b *testing.B) {
	svc := New(Config{Pool: 2})
	defer svc.Close()
	for _, tc := range []struct {
		kernel string
		n      int64
	}{{"sort", 65536}, {"matmul", 128}, {"fft", 16384}} {
		k, _ := registry.FindInvocable(tc.kernel)
		in, err := k.Gen(tc.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(Request{Kernel: k.Name, Input: in})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := svc.Submit(context.Background(), Request{Kernel: k.Name, Input: in})
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 0, responseBytes(resp.Kernel, len(resp.Output)))
		for _, mode := range []struct {
			name string
			s    *Service
		}{{"inline", nil}, {"p2", svc}} {
			name := fmt.Sprintf("%s%d/%s", tc.kernel, tc.n, mode.name)
			b.Run("decode/"+name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				for range b.N {
					var req Request
					if err := decodeOnly(body, &req, mode.s); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("encode/"+name, func(b *testing.B) {
				for range b.N {
					buf = encodeResponse(buf[:0], &resp, mode.s)
				}
				b.SetBytes(int64(len(buf)))
			})
		}
	}
}
