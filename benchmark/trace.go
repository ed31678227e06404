package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one record of the traced pass: an interval at a layer boundary,
// timed by the benchmark around its call into that layer.  Spans of one
// operation share Trace; Parent is the span that caused this one (0 for a
// root).  A span's self time is its duration minus the part of it its
// children cover.
type span struct {
	Trace  int64  `json:"trace"`
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends.  A nil *tracer is the
// untraced pass: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextID int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// id reserves a span id, so a parent can be named by its children before
// it finishes.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// rec records one finished span under a reserved id.
func (t *tracer) rec(trace, id, parent int64, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{trace, id, parent, layer, name,
		start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
}

// root records a finished span that is a trace of its own.
func (t *tracer) root(layer, name string, start, end time.Time) {
	id := t.id()
	t.rec(id, id, 0, layer, name, start, end)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
