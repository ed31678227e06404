package serve

// Acceptance gate for the streaming /batch protocol.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestBatchStreamsBeforeCompletion proves /batch is genuinely streaming:
// the first response line reaches the client while the window's other
// request has not yet run.  A one-worker pool and a gate that holds the
// second root to start make this deterministic — while the gate holds the
// pool's only worker the second kernel cannot run, yet the first response
// must already be readable off the wire.
func TestBatchStreamsBeforeCompletion(t *testing.T) {
	svc := New(Config{Pool: 1, QueueBound: 16})
	defer svc.Close()
	gate := gateKernels(svc, func(_ *call, nth int64) bool { return nth == 2 })
	defer gate.open()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	buf.WriteString(`{"kernel":"sort","n":64,"seed":1}` + "\n")
	buf.WriteString(`{"kernel":"sort","n":64,"seed":2}` + "\n")
	hr, err := http.Post(ts.URL+"/batch", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d", hr.StatusCode)
	}

	// First line: must arrive while the gate still holds the second root.
	br := bufio.NewReader(hr.Body)
	line1, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("first stream line: %v", err)
	}
	gate.awaitEntered(t)
	if m := svc.Metrics().Snapshot(); m.Completed != 1 {
		t.Fatalf("%d requests completed with the second root held, want exactly 1", m.Completed)
	}
	var first Response
	if err := json.Unmarshal(line1, &first); err != nil {
		t.Fatalf("first line %q: %v", line1, err)
	}

	// Release the held root; the second response follows, then the stream ends.
	gate.open()
	line2, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("second stream line: %v", err)
	}
	var second Response
	if err := json.Unmarshal(line2, &second); err != nil {
		t.Fatalf("second line %q: %v", line2, err)
	}
	if first.Index+second.Index != 1 { // {0, 1} in either order
		t.Fatalf("stream indexes {%d, %d}, want {0, 1}", first.Index, second.Index)
	}
	for _, r := range []Response{first, second} {
		if r.Kernel != "sort" || r.N != 64 || r.Batched != 1 {
			t.Fatalf("bad streamed response: %+v", r)
		}
	}
	if _, err := br.ReadBytes('\n'); err == nil {
		t.Fatal("stream carried more than two lines")
	}
}
