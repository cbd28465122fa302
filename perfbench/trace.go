package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a workload operation (sweep,
// figure, bar, job and its server phases) or one layer's replay of a
// machine shape. Spans of one machine or job share a subject.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Subject string `json:"subject"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so timed rounds share the traced code path at no cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id.
func (t *tracer) begin(name, subject string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Subject: subject,
		StartNS: time.Since(t.t0).Nanoseconds(), EndNS: -1})
	return len(t.spans)
}

// end closes span id now and returns its duration in nanoseconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	return float64(s.EndNS - s.StartNS)
}

// rename sets span id's subject once it is known.
func (t *tracer) rename(id int, subject string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Subject = subject
}

// add records a span whose start and end were observed elsewhere.
func (t *tracer) add(name, subject string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Subject: subject,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{t.spans}, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
