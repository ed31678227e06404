package serve

// Gates for the hand-rolled codec of wire.go: encoding/json is the oracle
// for what decodeRequest accepts and what appendResponse emits, the word
// round trip is identity on every payload the registry accepts, and the
// recycled buffers never carry one request's bytes into another's response.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/algos/registry"
	"repro/internal/fj"
)

// decodeWhole is /invoke's view of a body: one request, then white space.
func decodeWhole(body []byte) (Request, error) {
	var req Request
	err := decodeOnly(body, &req, nil)
	return req, err
}

// decodeOnly is the whole decode of an /invoke body: the handler's scan,
// then the parse of the words a root does, here on a root of s's pool, or
// inline with a nil s.  Input is nil when the decode fails.
func decodeOnly(body []byte, req *Request, s *Service) error {
	var p wirePass
	err := scanOnly(body, req, &p)
	if err == nil && p.decode {
		req.Input = make([]int64, p.n)
		onPool(s, func(fc *fj.Ctx) { err = p.parse(req.Input, fc) })
	}
	if err != nil {
		req.Input = nil
	}
	return err
}

// encodeResponse is a root's encode of r after dst, on a root of s's pool,
// or inline with a nil s.
func encodeResponse(dst []byte, r *Response, s *Service) (out []byte) {
	var p wirePass
	onPool(s, func(fc *fj.Ctx) { out = p.encode(dst, r, fc) })
	return out
}

// appendResponse is encodeResponse inline.
func appendResponse(dst []byte, r *Response) []byte { return encodeResponse(dst, r, nil) }

// onPool runs fn on a root of s's pool, or inline with a nil Ctx when s is
// nil.
func onPool(s *Service, fn func(*fj.Ctx)) {
	if s == nil {
		fn(nil)
		return
	}
	fj.RunReal(s.pool, fn)
}

// seedPayload is the small seeded payload of kernel k that the fuzz corpora
// start from (FuzzInvokeCodec's sizes).
func seedPayload(f *testing.F, k registry.Invocable) []int64 {
	n := int64(8)
	if k.Name == "strassen" || k.Name == "matmul" {
		n = 4 // 2n² words
	}
	in, err := k.Gen(n, 42)
	if err != nil {
		f.Fatal(err)
	}
	return in
}

// TestDecodeRequestGrammar is the table of what the HTTP edge reads and what
// it refuses; every row agrees with json.Unmarshal except the null element.
func TestDecodeRequestGrammar(t *testing.T) {
	ok := []struct {
		name, body string
		want       Request
	}{
		{"plain", `{"kernel":"sort","input":[3,1,2]}`, Request{Kernel: "sort", Input: []int64{3, 1, 2}}},
		{"generated", `{"kernel":"scan","n":4,"seed":9,"verify":true}`, Request{Kernel: "scan", N: 4, Seed: 9, Verify: true}},
		{"explicit empty payload", `{"kernel":"sort","input":[]}`, Request{Kernel: "sort", Input: []int64{}}},
		{"explicit empty payload, spaced", `{"kernel":"sort","input":[ ]}`, Request{Kernel: "sort", Input: []int64{}}},
		{"null payload is absent", `{"kernel":"sort","input":null,"n":2}`, Request{Kernel: "sort", N: 2}},
		{"null after a payload clears it", `{"input":[1],"input":null}`, Request{}},
		{"null scalars change nothing", `{"n":5,"n":null,"kernel":"a","kernel":null,"verify":true,"verify":null,"seed":1,"seed":null}`,
			Request{Kernel: "a", N: 5, Seed: 1, Verify: true}},
		{"last duplicate wins", `{"input":[1,2,3],"n":1,"input":[4],"n":2}`, Request{Input: []int64{4}, N: 2}},
		{"empty after a payload", `{"input":[1,2],"input":[]}`, Request{Input: []int64{}}},
		{"folded keys", `{"KERNEL":"sort","Input":[1],"N":3,"SeeD":4,"VERIFY":true}`, Request{Kernel: "sort", Input: []int64{1}, N: 3, Seed: 4, Verify: true}},
		{"unicode-folded keys", "{\"\u017feed\":7,\"\u212aernel\":\"k\"}", Request{Kernel: "k", Seed: 7}}, // long s, Kelvin sign
		{"escaped key", `{"\u006bernel":"sort","inpu\u0074":[5]}`, Request{Kernel: "sort", Input: []int64{5}}},
		{"escaped name", `{"kernel":"a\né😀\"b"}`, Request{Kernel: "a\né😀\"b"}},
		{"lone surrogate", `{"kernel":"\ud800x"}`, Request{Kernel: "�x"}},
		{"non-UTF-8 name", "{\"kernel\":\"a\xffb\"}", Request{Kernel: "a�b"}},
		{"unknown members skipped", `{"x":{"input":[1.5e3,"]",{"a":[null,true,false]}]},"kernel":"sort","y":-0.0e-1,"z":"\\\""}`, Request{Kernel: "sort"}},
		{"white space everywhere", " \t\r\n{ \"kernel\" :\t\"sort\" , \"input\" : [ 1 ,\n-2 , 3 ] , \"n\" : 0 } \n", Request{Kernel: "sort", Input: []int64{1, -2, 3}}},
		{"extremes", `{"input":[-9223372036854775808,9223372036854775807,-0,0],"n":-9223372036854775808,"seed":18446744073709551615}`,
			Request{Input: []int64{math.MinInt64, math.MaxInt64, 0, 0}, N: math.MinInt64, Seed: math.MaxUint64}},
		{"top-level null", ` null `, Request{}},
		{"empty object", `{}`, Request{}},
	}
	for _, tc := range ok {
		t.Run("ok/"+tc.name, func(t *testing.T) {
			got, err := decodeWhole([]byte(tc.body))
			if err != nil {
				t.Fatalf("refused: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("decoded %#v, want %#v", got, tc.want)
			}
			var std Request
			if err := json.Unmarshal([]byte(tc.body), &std); err != nil || !reflect.DeepEqual(std, tc.want) {
				t.Fatalf("encoding/json disagrees with the table: %#v, %v", std, err)
			}
		})
	}
	bad := []struct{ name, body string }{
		{"trailing junk", `{"kernel":"sort","input":[1]} x`},
		{"second object", `{"kernel":"sort"}{"kernel":"sort"}`},
		{"float word", `{"input":[1.5]}`},
		{"integral float word", `{"input":[1.0]}`},
		{"exponent word", `{"input":[1e2]}`},
		{"leading zero", `{"input":[01]}`},
		{"minus zero one", `{"input":[-01]}`},
		{"plus sign", `{"input":[+1]}`},
		{"bare minus", `{"input":[-]}`},
		{"word over int64", `{"input":[9223372036854775808]}`},
		{"word under int64", `{"input":[-9223372036854775809]}`},
		{"twenty digits", `{"input":[10000000000000000000]}`},
		{"string word", `{"input":["1"]}`},
		{"nested array", `{"input":[[1]]}`},
		{"double separator", `{"input":[1,,2]}`},
		{"trailing separator", `{"input":[1,]}`},
		{"leading separator", `{"input":[,1]}`},
		{"missing separator", `{"input":[1 2]}`},
		{"only separators", `{"input":[,,,,,,,,]}`},
		{"unterminated payload", `{"input":[1,2`},
		{"payload not an array", `{"input":{"0":1}}`},
		{"payload a number", `{"input":7}`},
		{"float n", `{"n":1.5}`},
		{"exponent n", `{"n":1e3}`},
		{"leading-zero n", `{"n":007}`},
		{"plus n", `{"n":+1}`},
		{"n over int64", `{"n":9223372036854775808}`},
		{"string n", `{"n":"4"}`},
		{"negative seed", `{"seed":-1}`},
		{"minus-zero seed", `{"seed":-0}`},
		{"seed over uint64", `{"seed":18446744073709551616}`},
		{"float seed", `{"seed":2.0}`},
		{"verify a number", `{"verify":1}`},
		{"verify a string", `{"verify":"true"}`},
		{"kernel a number", `{"kernel":7}`},
		{"control character in a name", "{\"kernel\":\"a\nb\"}"},
		{"bad escape", `{"kernel":"\x"}`},
		{"short unicode escape", `{"kernel":"\u12"}`},
		{"unknown member invalid", `{"x":[1,],"kernel":"sort"}`},
		{"unknown member bad number", `{"x":1.}`},
		{"unknown member bad literal", `{"x":nul}`},
		{"unquoted key", `{kernel:"sort"}`},
		{"trailing member separator", `{"kernel":"sort",}`},
		{"missing colon", `{"kernel" "sort"}`},
		{"top-level array", `[]`},
		{"top-level number", `12`},
		{"top-level string", `"sort"`},
		{"truncated", `{"kernel":`},
		{"empty body", ``},
		{"white space only", " \n"},
	}
	for _, tc := range bad {
		t.Run("bad/"+tc.name, func(t *testing.T) {
			if got, err := decodeWhole([]byte(tc.body)); err == nil {
				t.Fatalf("accepted as %#v", got)
			}
			var std Request
			if json.Unmarshal([]byte(tc.body), &std) == nil {
				t.Fatal("encoding/json accepts this body: the table is wrong")
			}
		})
	}
	// The one row where the two decoders part: encoding/json reads a null
	// element as "leave what was there".
	if _, err := decodeWhole([]byte(`{"input":[1,null]}`)); !errors.Is(err, errNullWord) {
		t.Fatalf("null element: %v, want errNullWord", err)
	}
}

// TestInvokePayloadPresence: over the wire, "input":[] is an explicit empty
// payload while an absent or null "input" asks for the seeded size-n one,
// and keys match the way encoding/json matched them.
func TestInvokePayloadPresence(t *testing.T) {
	svc := New(Config{Pool: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		body string
		n    int64
	}{
		{`{"kernel":"sort","input":[],"n":4}`, 0},
		{`{"kernel":"sort","n":4}`, 4},
		{`{"kernel":"sort","input":null,"n":4}`, 4},
		{`{"kernel":"sort","input":[9],"input":null,"n":4}`, 4},
		{`{"Kernel":"sort","N":1,"n":3,"comment":{"input":[1,2]},"INPUT":[3,2,1,0,-1]} ` + "\n", 5},
	} {
		hr, err := http.Post(ts.URL+"/invoke", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		err = json.NewDecoder(hr.Body).Decode(&resp)
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK || err != nil || resp.N != tc.n || int64(len(resp.Output)) != tc.n || resp.Output == nil {
			t.Errorf("%s: status %d, n = %d, %d output words, err %v; want n = %d", tc.body, hr.StatusCode, resp.N, len(resp.Output), err, tc.n)
		}
	}
}

// TestDecodeRequestDepth: unknown members nest as deep as encoding/json
// allows and no deeper.
func TestDecodeRequestDepth(t *testing.T) {
	nest := func(depth int) []byte { // the request object is level 1
		return []byte(`{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`)
	}
	for _, tc := range []struct {
		depth int
		ok    bool
	}{{maxDepth, true}, {maxDepth + 1, false}} {
		_, err := decodeWhole(nest(tc.depth))
		var std Request
		if stdErr := json.Unmarshal(nest(tc.depth), &std); (err == nil) != tc.ok || (stdErr == nil) != tc.ok {
			t.Errorf("depth %d: wire %v, encoding/json %v, want accepted = %v", tc.depth, err, stdErr, tc.ok)
		}
	}
}

// FuzzDecodeRequest holds decodeRequest to encoding/json on arbitrary bytes:
// the same bodies accepted and refused (with /invoke's rule that nothing but
// white space follows the request, which is json.Unmarshal's too), and an
// equal Request from every accepted one.  The one listed exception is a null
// element of "input", which the wire codec refuses.  Every input is then
// decoded again in blocks of each fuzzBlocks size, inline and on a pool,
// and must give the same request and error text.
func FuzzDecodeRequest(f *testing.F) {
	svc := New(Config{Pool: 2})
	f.Cleanup(svc.Close)
	for _, k := range registry.Invocables() {
		body, _ := json.Marshal(Request{Kernel: k.Name, Input: seedPayload(f, k), Verify: true})
		f.Add(body)
		f.Add(body[:len(body)/2]) // truncated
	}
	nan := int64(math.Float64bits(math.NaN()))
	negNaN := int64(math.Float64bits(math.NaN()) | 1<<63)
	for _, s := range []string{
		`{"kernel":"sort","input":[-9223372036854775808,9223372036854775807,-0]}`,
		fmt.Sprintf(`{"kernel":"transpose","input":[%d,%d,%d,0]}`, nan, negNaN, int64(math.Float64bits(math.Inf(-1)))),
		" {\r\n\t\"kernel\" : \"scan\" ,\n \"input\" : [ 1 , 2 ,\t3 ] , \"n\" : 7 }\n ",
		`{"kernel":"sort\n\"\\\/","n":1}`,
		"{\"kernel\":\"a\xff\xc0b\"}",
		`{"x":{"y":[1,2.5e-3,{"z":null}],"input":[1]},"Kernel":"sort","INPUT":[],"input":null,"seed":18446744073709551615}`,
		`{"kernel":"sort","input":[1,2,3]} trailing`,
		`{"kernel":"sort","input":[1,null]}`,
		`{"n":1.0}`, `{"n":-}`, `{"seed":-0}`, `{"input":[1e3]}`, `{"input":[00]}`, `{"input":[1,,2]}`, `{"input":[[1]]}`,
		`null`, `nul`, `{}`, `[]`, ``, `{"verify":true,"verify":null}`, `{"kernel":"a","kernel":null}`, `{"ſeed":3}`,
		`{"input":[99999999999999999999]}`, `{"input":[1]]}`, `{"input":[1]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBlockedDecode(t, svc, body, fuzzBlocks)
		got, err := decodeWhole(body)
		if errors.Is(err, errNullWord) {
			if !bytes.Contains(body, []byte("null")) {
				t.Fatalf("errNullWord on a body without a null: %q", body)
			}
			return
		}
		var want Request
		stdErr := json.Unmarshal(body, &want)
		if (err == nil) != (stdErr == nil) {
			t.Fatalf("wire: %v; encoding/json: %v; body %q", err, stdErr, body)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %#v, encoding/json %#v; body %q", got, want, body)
		}
	})
}

// TestAppendResponseMatchesStdlib: appendResponse is json.Marshal plus a
// newline, byte for byte — every catalog kernel's output, Verified absent,
// true and false, a /batch index, the nil and empty outputs, and a kernel
// name json.Marshal has to escape.
func TestAppendResponseMatchesStdlib(t *testing.T) {
	yes, no := true, false
	var cases []Response
	for ki, k := range registry.Invocables() {
		in := genInput(t, k.Name, ki)
		out := serialReference(t, k.Name, in)
		for j, v := range []*bool{nil, &yes, &no} {
			cases = append(cases, Response{Kernel: k.Name, N: int64(len(out)), Index: ki * j, Output: out, Batched: 1, Verified: v})
		}
	}
	cases = append(cases,
		Response{},
		Response{Kernel: "sort", Output: []int64{}},
		Response{Kernel: "sort", N: -1, Index: 1 << 40, Output: []int64{math.MinInt64, math.MaxInt64, 0, -1}, Batched: -3},
		Response{Kernel: "<a&b>\"\\\n \xff é", Output: []int64{7}},
	)
	for i, r := range cases {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		prefix := []byte("kept")
		got := appendResponse(prefix, &r)
		if !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], want) {
			t.Errorf("%s/index %d: appendResponse differs from json.Marshal:\n got %.120q\nwant %.120q", r.Kernel, r.Index, got[4:], want)
		}
		// The size bound assumes a name that needs no escaping: all but the last.
		if bound := responseBytes(r.Kernel, len(r.Output)); len(want) > bound && i < len(cases)-1 {
			t.Errorf("responseBytes = %d under the %d-byte encoding", bound, len(want))
		}
	}
}

// FuzzWireWords extends FuzzInvokeCodec (internal/algos/registry, which
// cannot import this package) onto the wire: for every payload a kernel's
// Validate accepts — the same (kernel, bytes) corpus, NaN bit patterns
// included — words → JSON request text → words and words → JSON response
// text → words are both identity, and so are they in blocks of each
// fuzzBlocks size, inline and on a pool.
func FuzzWireWords(f *testing.F) {
	svc := New(Config{Pool: 2})
	f.Cleanup(svc.Close)
	kernels := registry.Invocables()
	toBytes := func(w []int64) []byte {
		b := make([]byte, 8*len(w))
		for i, x := range w {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
		}
		return b
	}
	for ki, k := range kernels {
		f.Add(uint8(ki), toBytes(seedPayload(f, k)))
	}
	f.Add(uint8(0), toBytes([]int64{math.MinInt64, math.MaxInt64, 0, -1}))
	f.Add(uint8(7), toBytes([]int64{int64(math.Float64bits(math.NaN())), -1, int64(math.Float64bits(math.Inf(1))), 1 << 63 >> 1}))
	f.Add(uint8(5), []byte{})
	f.Fuzz(func(t *testing.T, ki uint8, data []byte) {
		k := kernels[int(ki)%len(kernels)]
		words := make([]int64, len(data)/8)
		for i := range words {
			words[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if k.Validate(words) != nil {
			return
		}
		body, err := json.Marshal(Request{Kernel: k.Name, Input: words})
		if err != nil {
			t.Fatal(err)
		}
		req, err := decodeWhole(body)
		if err != nil {
			t.Fatalf("%s: request text refused: %v", k.Name, err)
		}
		// json.Marshal omits an empty "input" (omitempty), so an empty
		// payload comes back absent; anything else must come back whole.
		if req.Kernel != k.Name || len(req.Input) != len(words) || len(words) > 0 && !reflect.DeepEqual(req.Input, words) {
			t.Fatalf("%s: words changed on the way in", k.Name)
		}
		var resp Response
		if err := json.Unmarshal(appendResponse(nil, &Response{Kernel: k.Name, Output: words}), &resp); err != nil {
			t.Fatalf("%s: response text does not parse: %v", k.Name, err)
		}
		if len(resp.Output) != len(words) || len(words) > 0 && !reflect.DeepEqual(resp.Output, words) {
			t.Fatalf("%s: words changed on the way out", k.Name)
		}
		checkBlockedDecode(t, svc, body, fuzzBlocks)
		checkBlockedEncode(t, svc, &Response{Kernel: k.Name, Output: words}, fuzzBlocks)
	})
}

// TestBufListBounds: the free list hands back what fits, keeps at most
// maxFreeBufs buffers and none over maxFreeBufBytes.
func TestBufListBounds(t *testing.T) {
	var l freeList[byte]
	for i := 0; i < 2*maxFreeBufs; i++ {
		l.put(make([]byte, 10, 1<<10))
	}
	l.put(make([]byte, 0, maxFreeBufBytes+1))
	if len(l.free) != maxFreeBufs {
		t.Fatalf("%d buffers kept, want %d", len(l.free), maxFreeBufs)
	}
	for _, b := range l.free {
		if cap(b) > maxFreeBufBytes {
			t.Fatalf("kept a %d-byte buffer, over the %d-byte cap", cap(b), maxFreeBufBytes)
		}
	}
	l.put(nil)
	big := make([]byte, 5, 8<<10)
	l.free[3] = big
	if b := l.get(4 << 10); len(b) != 0 || cap(b) != cap(big) {
		t.Fatalf("get(4 KiB) = len %d cap %d, want the 8 KiB buffer, emptied", len(b), cap(b))
	}
	if b := l.get(100); cap(b) != 1<<10 {
		t.Fatalf("get(100) took a %d-byte buffer, want the smallest that fits", cap(b))
	}
	if b := l.get(1 << 20); cap(b) < 1<<20 || len(l.free) != maxFreeBufs-2 {
		t.Fatalf("get(1 MiB) = cap %d with %d kept, want a new buffer", cap(b), len(l.free))
	}
}

// TestRecycledBuffersNoBleed drives /invoke and /batch concurrently over one
// service's free lists (run under -race in CI), for all nine served names at
// sizes that vary per kernel, so a body, a response buffer or a word slab
// one request used is reused by another kernel at a shorter or longer size
// — an output slab uncleared — and every response must pass its kernel's
// Verify (exact for the sorts, scan, gather, transpose and listrank).  It
// is what licenses giving kernels uncleared output slabs.  Blocks are
// lowered to 256 bytes, so every payload of 40 words or more is coded in
// blocks while other requests recycle the buffers.
func TestRecycledBuffersNoBleed(t *testing.T) {
	defer func(old int) { codecBlock = old }(codecBlock)
	codecBlock = 256
	svc := New(Config{Pool: 2, QueueBound: 256})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	kernels := registry.Invocables()
	sizes := map[string][]int64{ // n per kernel, interleaved large and small
		"matmul": {8, 1, 16, 2, 4}, "strassen": {16, 2, 8, 1, 4},
		"fft": {256, 1, 64, 4, 128}, "transpose": {40, 1, 24, 3, 5},
	}
	type job struct {
		k  registry.Invocable
		in []int64
	}
	jobOf := func(i int) job {
		k := kernels[i%len(kernels)]
		ns, ok := sizes[k.Name]
		if !ok {
			ns = []int64{0, 1, 7, 300, 5000, 40, 20000, 2}
		}
		in, err := k.Gen(ns[i/len(kernels)%len(ns)], uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		return job{k, in}
	}
	check := func(j job, resp Response) error {
		if resp.Kernel != j.k.Name || int64(len(resp.Output)) != j.k.OutLen(j.in) || !j.k.Verify(j.in, resp.Output) {
			return fmt.Errorf("%s on %d words: wrong response (%d output words)", j.k.Name, len(j.in), len(resp.Output))
		}
		return nil
	}
	const clients, rounds, window = 6, 12, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := (c*rounds + r) * window
				if c%2 == 0 {
					j := jobOf(id)
					resp, hr := postInvoke(t, ts.URL, Request{Kernel: j.k.Name, Input: j.in})
					if hr.StatusCode != http.StatusOK {
						t.Errorf("%s: status %d", j.k.Name, hr.StatusCode)
					} else if err := check(j, resp); err != nil {
						t.Error(err)
					}
					continue
				}
				var body bytes.Buffer
				jobs := make([]job, window)
				for i := range jobs {
					jobs[i] = jobOf(id + i)
					// "input":[] spelled out: omitempty would drop it
					// (/invoke sends an empty payload as a generated n = 0).
					fmt.Fprintf(&body, `{"kernel":%q,"input":%s}`+"\n", jobs[i].k.Name, mustJSON(jobs[i].in))
				}
				hr, err := http.Post(ts.URL+"/batch", "application/jsonl", &body)
				if err != nil {
					t.Error(err)
					return
				}
				dec := json.NewDecoder(hr.Body)
				seen := 0
				for ; ; seen++ {
					var resp Response
					if err := dec.Decode(&resp); err == io.EOF {
						break
					} else if err != nil {
						t.Errorf("window %d: %v", id, err)
						break
					}
					if resp.Index < 0 || resp.Index >= window {
						t.Errorf("window %d: index %d", id, resp.Index)
					} else if err := check(jobs[resp.Index], resp); err != nil {
						t.Error(err)
					}
				}
				hr.Body.Close()
				if seen != window {
					t.Errorf("window %d: %d lines, want %d", id, seen, window)
				}
			}
		}(c)
	}
	wg.Wait()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
