package semisort

import (
	"io"

	"repro/internal/obsv"
)

// The observability surface re-exports internal/obsv, so callers outside
// this module can trace executions through Config.Observer. See
// docs/OBSERVABILITY.md for the full event and counter catalogue.

// Observer receives a structured trace of a semisort call via
// Config.Observer: an AttemptStart/AttemptEnd pair per scatter attempt
// (and per fallback), with a PhaseStart/PhaseEnd span for every phase the
// attempt reaches. All methods run on the goroutine orchestrating the
// semisort. Setting an Observer also turns on the scheduler counters
// reported in Stats.Sched; a nil Observer costs one nil-check per phase.
type Observer = obsv.Observer

// Phase identifies one traced stage: the paper's five phases (with Phase 2
// split into classify and allocate), plus the fallback and the generic
// front-end's hash and verify stages.
type Phase = obsv.Phase

// The traced stages, in pipeline order.
const (
	PhaseSample    = obsv.PhaseSample
	PhaseClassify  = obsv.PhaseClassify
	PhaseAllocate  = obsv.PhaseAllocate
	PhaseScatter   = obsv.PhaseScatter
	PhaseLocalSort = obsv.PhaseLocalSort
	PhasePack      = obsv.PhasePack
	PhaseFallback  = obsv.PhaseFallback
	PhaseHash      = obsv.PhaseHash
	PhaseVerify    = obsv.PhaseVerify
)

// Attempt describes one scatter attempt (or the fallback) as it begins;
// Span is one completed phase of one attempt; AttemptEnd reports how the
// attempt finished.
type (
	Attempt    = obsv.Attempt
	Span       = obsv.Span
	AttemptEnd = obsv.AttemptEnd
)

// SchedStats is the snapshot of scheduler counters (chunks claimed,
// limiter spawns, inline runs and queue depth) reported as Stats.Sched
// while an Observer is set.
type SchedStats = obsv.SchedStats

// Collector is an in-memory Observer that records every event; its zero
// value is ready to use as Config.Observer.
type Collector = obsv.Collector

// JSONSink is an Observer writing one JSON object per event — the format
// `semibench -experiment observe -trace` emits.
type JSONSink = obsv.JSONSink

// NewJSONSink returns a JSONSink writing to w.
func NewJSONSink(w io.Writer) *JSONSink { return obsv.NewJSONSink(w) }

// TraceRegionSink is an Observer bracketing each phase with a
// runtime/trace region, so `go tool trace` shows the phase structure on
// the execution timeline. Its zero value is ready.
type TraceRegionSink = obsv.TraceRegionSink

// MultiObserver fans events out to several observers in order, e.g. a
// Collector for assertions plus a JSONSink for the trace file.
func MultiObserver(obs ...Observer) Observer { return obsv.Multi(obs...) }
