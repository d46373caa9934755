package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around its own call into a layer's public function. Spans of one cell or
// job share Cell; Parent is the ID of the enclosing span (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Cell    string `json:"cell"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID plus the function that closes it.
func (t *tracer) start(name, cell string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, StartNs: time.Since(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNs = end
		t.mu.Unlock()
	}
}

// add records an interval measured elsewhere (a job's server-side
// timestamps) as a closed span. Such times carry no monotonic reading, so
// every span added this way is placed by wall clock, parent and child alike.
func (t *tracer) add(name, cell string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	epoch := t.epoch.Round(0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell,
		StartNs: start.Round(0).Sub(epoch).Nanoseconds(), EndNs: end.Round(0).Sub(epoch).Nanoseconds()})
	return id
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// from returns a copy of the spans recorded since the tracer held mark.
func (t *tracer) from(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
