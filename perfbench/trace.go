package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval the benchmark spent inside a call into a layer.
// Spans of one operation share Trace; Parent links a span to the span
// that caused it (0 for a root). Times are nanoseconds from the tracer's
// epoch.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Trace  int64            `json:"trace"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// A tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is an in-flight span; close it with end.
type open struct {
	t *tracer
	s span
}

// begin opens a span named name under parent (nil for a root of trace).
func (t *tracer) begin(trace int64, parent *open, name string) *open {
	if t == nil {
		return nil
	}
	o := &open{t: t, s: span{ID: t.ids.Add(1), Trace: trace, Name: name, Start: int64(time.Since(t.epoch))}}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	return o
}

// end closes the span, attaching counts (which may be nil).
func (o *open) end(counts map[string]int64) {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.s.Counts = counts
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
