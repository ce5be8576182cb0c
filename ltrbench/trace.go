package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program.
// Spans of one request share Req; Parent is the id of the span that caused
// this one (-1 for a root).
type Span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Attr   string `json:"attr,omitempty"`
	// Start and End are nanoseconds since the run started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool) *Tracer {
	if !on {
		return nil
	}
	return &Tracer{t0: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// Begin opens a span and returns its id.
func (t *Tracer) Begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Name: name, Parent: parent, Req: req, Start: now})
	return id
}

// End closes span id, tagging it with attr (may be empty).
func (t *Tracer) End(id int, attr string) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Attr = attr
}

// Durations returns the durations in milliseconds of every closed span with
// the given name, and attr when attr is non-empty.
func (t *Tracer) Durations(name, attr string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 && (attr == "" || s.Attr == attr) {
			out = append(out, ms(s.Dur()))
		}
	}
	return out
}

// WriteFile writes every span as one JSON object per line.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
