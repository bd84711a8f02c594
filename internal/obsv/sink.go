package obsv

import (
	"context"
	"encoding/json"
	"io"
	"runtime/trace"
	"sync"
)

// A JSONSink is an Observer that writes one JSON object per event, one
// event per line, to an io.Writer — the trace format emitted by
// `semibench -experiment observe -trace FILE` and documented in
// docs/OBSERVABILITY.md. It is safe for concurrent use; write errors are
// sticky and reported by Err.
//
// Event shapes (times in integer microseconds):
//
//	{"event":"attempt_start","attempt":0,"kind":"fresh","slack":1.1}
//	{"event":"span","attempt":0,"phase":"scatter","start_us":812,"dur_us":1604,"outcome":"overflow","strategy":"probing"}
//	{"event":"span","attempt":0,"phase":"scatter","start_us":812,"dur_us":903,"outcome":"ok","strategy":"counting"}
//	{"event":"attempt_end","attempt":0,"outcome":"overflow","overflowed_buckets":2}
type JSONSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONSink returns a JSONSink writing to w.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w)}
}

// jsonEvent is the wire shape shared by all three event kinds; empty
// fields are elided per kind.
type jsonEvent struct {
	Event             string  `json:"event"`
	Attempt           int     `json:"attempt"`
	Kind              string  `json:"kind,omitempty"`
	Slack             float64 `json:"slack,omitempty"`
	BoostedBuckets    int     `json:"boosted_buckets,omitempty"`
	Phase             string  `json:"phase,omitempty"`
	StartUS           int64   `json:"start_us,omitempty"`
	DurUS             int64   `json:"dur_us,omitempty"`
	Outcome           string  `json:"outcome,omitempty"`
	Strategy          string  `json:"strategy,omitempty"`
	Kernel            string  `json:"kernel,omitempty"`
	Ranges            int64   `json:"ranges,omitempty"`
	OverflowedBuckets int     `json:"overflowed_buckets,omitempty"`
}

func (s *JSONSink) emit(e jsonEvent) {
	s.mu.Lock()
	if s.err == nil {
		s.err = s.enc.Encode(e)
	}
	s.mu.Unlock()
}

func (s *JSONSink) AttemptStart(a Attempt) {
	s.emit(jsonEvent{Event: "attempt_start", Attempt: a.Index, Kind: a.Kind,
		Slack: a.Slack, BoostedBuckets: a.BoostedBuckets})
}

func (s *JSONSink) PhaseStart(attempt int, ph Phase) {}

func (s *JSONSink) PhaseEnd(sp Span) {
	s.emit(jsonEvent{Event: "span", Attempt: sp.Attempt, Phase: sp.Phase.String(),
		StartUS: sp.Start.Microseconds(), DurUS: sp.Duration.Microseconds(),
		Outcome: sp.Outcome, Strategy: sp.Strategy,
		Kernel: sp.Kernel, Ranges: sp.Ranges})
}

func (s *JSONSink) AttemptEnd(e AttemptEnd) {
	s.emit(jsonEvent{Event: "attempt_end", Attempt: e.Index, Outcome: e.Outcome,
		OverflowedBuckets: e.OverflowedBuckets})
}

// Err returns the first write or encode error, if any.
func (s *JSONSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// A TraceRegionSink is an Observer that brackets every phase with a
// runtime/trace region named "semisort/<phase>" and logs attempt
// boundaries, so a trace captured with trace.Start (or the net/http/pprof
// /debug/pprof/trace endpoint) shows the five-phase structure — including
// retries and the fallback — on the execution timeline in `go tool
// trace`. Regions open and close on the goroutine orchestrating the
// semisort, which is the goroutine PhaseStart/PhaseEnd run on, as
// runtime/trace requires.
//
// The zero value is ready. A single TraceRegionSink must observe one
// semisort at a time (phases of one call never overlap; concurrent calls
// need one sink each). Open regions are kept on a small stack and
// closed innermost first.
type TraceRegionSink struct {
	regions []*trace.Region
}

func (t *TraceRegionSink) AttemptStart(a Attempt) {
	trace.Logf(context.Background(), "semisort", "attempt %d start (%s, slack %.3g)",
		a.Index, a.Kind, a.Slack)
}

func (t *TraceRegionSink) PhaseStart(attempt int, ph Phase) {
	t.regions = append(t.regions, trace.StartRegion(context.Background(), "semisort/"+ph.String()))
}

func (t *TraceRegionSink) PhaseEnd(s Span) {
	if n := len(t.regions); n > 0 {
		if r := t.regions[n-1]; r != nil {
			r.End()
		}
		t.regions = t.regions[:n-1]
	}
}

func (t *TraceRegionSink) AttemptEnd(e AttemptEnd) {
	trace.Logf(context.Background(), "semisort", "attempt %d end (%s)",
		e.Index, e.Outcome)
}

// Multi returns an Observer that forwards every event to each of obs in
// order. Nil entries are skipped.
func Multi(obs ...Observer) Observer {
	flat := make(multi, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			flat = append(flat, o)
		}
	}
	return flat
}

type multi []Observer

func (m multi) AttemptStart(a Attempt) {
	for _, o := range m {
		o.AttemptStart(a)
	}
}

func (m multi) PhaseStart(attempt int, ph Phase) {
	for _, o := range m {
		o.PhaseStart(attempt, ph)
	}
}

func (m multi) PhaseEnd(s Span) {
	for _, o := range m {
		o.PhaseEnd(s)
	}
}

func (m multi) AttemptEnd(e AttemptEnd) {
	for _, o := range m {
		o.AttemptEnd(e)
	}
}
