// Package obsv is the observability layer for the semisort pipeline:
// structured per-phase trace spans, scheduler counters, and the plumbing
// that turns both into something a caller, a benchmark, or a CI gate can
// consume.
//
// It follows the same zero-cost-when-disabled discipline as
// internal/fault: every probe compiled into a hot path collapses to a
// single atomic load when nothing is listening. Phase tracing is gated on
// a per-call Observer (a nil-check), scheduler counters on a process-wide
// refcount (one atomic load per probe); neither path allocates, whether
// enabled or not. Probes sit at phase, chunk and limiter-branch
// granularity — never per record.
//
// Two consumers are bundled: JSONSink writes one JSON object per event
// (the format semibench -experiment observe emits and the bench-baseline
// pipeline diffs), and TraceRegionSink brackets each phase with a
// runtime/trace region so `go tool trace` shows the five-phase structure
// on the execution timeline. Collector accumulates events in memory for
// tests and tables. See docs/OBSERVABILITY.md for the full catalogue of
// events and counters and their paper analogues.
package obsv

import (
	"fmt"
	"sync"
	"time"
)

// Phase identifies one traced stage of a semisort execution. The first
// six mirror the paper's five-phase breakdown with Phase 2 split into its
// two halves (classification of the sorted sample versus bucket-table and
// slot-array construction); the rest cover the recovery and front-end
// stages that the paper's clean-run evaluation never sees.
type Phase uint8

const (
	// PhaseSample is Phase 1: stratified sampling plus the sample sort.
	PhaseSample Phase = iota
	// PhaseClassify is the first half of Phase 2: heavy/light
	// classification of the sorted sample's key runs.
	PhaseClassify
	// PhaseAllocate is the second half of Phase 2: bucket-table
	// construction, f(s) sizing and slot-array allocation.
	PhaseAllocate
	// PhaseScatter is Phase 3: the CAS scatter into bucket slots.
	PhaseScatter
	// PhaseLocalSort is Phase 4: compaction + local sort of light buckets.
	PhaseLocalSort
	// PhasePack is Phase 5: interval compaction of the heavy region and
	// the final contiguous copy-out.
	PhasePack
	// PhaseFallback is the deterministic sequential semisort an execution
	// degrades to after retry exhaustion or the slot-memory cap.
	PhaseFallback
	// PhaseHash is the generic front-end hashing items' keys to 64 bits
	// (one span per rehash attempt).
	PhaseHash
	// PhaseVerify is the generic front-end's collision check over the
	// semisorted output (one span per rehash attempt).
	PhaseVerify
	// PhaseReduce is the fused collect-reduce's Phase 4: in-arena
	// reduction of the light buckets (it replaces the localsort span on
	// fused runs; the heavy-cell merge is part of the pack span).
	PhaseReduce
	// PhaseSpill is the out-of-core shuffle's seal step: the time
	// ForEachGroup spent draining the spill writer pool before read-back
	// could start — the non-overlapped tail of the spill, not its total
	// cost (overlapped writes are free by design). One span per shuffle.
	PhaseSpill
	// PhasePrefetch is the time the shuffle's emit loop spent waiting for
	// the prefetcher to deliver a partition — zero when read-back fully
	// overlapped the previous partition's semisort. One span per
	// partition, with Attempt carrying the partition index.
	PhasePrefetch
	// PhaseCompress is the CPU time the spill writers spent compressing
	// blocks, summed over the writer pool and emitted once at seal (only
	// when compression is on). It overlaps ingestion, so it measures the
	// CPU side of the compression trade, not added wall-clock.
	PhaseCompress

	numPhases
)

var phaseNames = [numPhases]string{
	"sample",
	"classify",
	"allocate",
	"scatter",
	"localsort",
	"pack",
	"fallback",
	"hash",
	"verify",
	"reduce",
	"spill",
	"prefetch",
	"compress",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("obsv.Phase(%d)", uint8(p))
}

// Span outcomes. A span's Outcome is OutcomeOK unless the phase ended the
// attempt: a scatter that observed bucket overflow, an allocation (or a
// counting scatter, once pass 1 knows its light count) that tripped
// Config.MaxSlotBytes, or a phase cut short by cancellation.
const (
	OutcomeOK       = "ok"
	OutcomeOverflow = "overflow"
	OutcomeCap      = "cap"
	OutcomeCanceled = "canceled"
	// OutcomeCollision marks a verify span that detected a 64-bit hash
	// collision between distinct keys, triggering a rehash (generic
	// front-end only).
	OutcomeCollision = "collision"
	// OutcomeError marks a non-retryable failure (an internal invariant
	// violation or a worker panic), reported by AttemptEnd only.
	OutcomeError = "error"
)

// Attempt kinds, reported by AttemptStart. They name the recovery rule
// of DESIGN.md: a fresh first attempt, a Las Vegas restart with a fresh
// sample and doubled slack, and the sequential fallback.
const (
	AttemptFresh    = "fresh"
	AttemptResample = "resample"
	AttemptFallback = "fallback"
)

// Attempt describes one scatter attempt (or the fallback) as it begins.
type Attempt struct {
	// Index is the 0-based attempt number within one semisort call; the
	// fallback reuses the index after the last scatter attempt.
	Index int `json:"attempt"`
	// Kind is one of the Attempt* constants.
	Kind string `json:"kind"`
	// Slack is the bucket-sizing slack in force for this attempt (doubled
	// on each resample).
	Slack float64 `json:"slack,omitempty"`
}

// Span is one completed phase of one attempt. (JSONSink encodes spans
// with Start and Duration in microseconds; see sink.go.)
type Span struct {
	// Attempt is the 0-based attempt the phase belongs to.
	Attempt int
	// Phase is the traced stage.
	Phase Phase
	// Start is the offset from the start of the semisort call.
	Start time.Duration
	// Duration is the phase's wall-clock time.
	Duration time.Duration
	// Outcome is one of the Outcome* constants.
	Outcome string
	// Strategy names the placement algorithm of a scatter span —
	// "probing" (the CAS scatter of a plain semisort) or "counting" (the
	// two-pass counting scatter of a fused reduce); empty on every other
	// phase. The dovetail route has no scatter span: its one kernel call
	// is its localsort span.
	Strategy string
	// Kernel names the Phase 4 local-sort kernel of a localsort span —
	// "hybrid" (introsort per light bucket, the probing route), "radix"
	// (the dovetail route) or "reduce" (a fused reduce, on counting);
	// empty on every other phase.
	Kernel string
	// Ranges is the number of size-aware bucket ranges the Phase 4
	// schedule used (localsort spans).
	Ranges int64
}

// AttemptEnd reports how one attempt (or the fallback) finished.
type AttemptEnd struct {
	Index int `json:"attempt"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// OverflowedBuckets is how many buckets rejected records during this
	// attempt's scatter (overflow outcomes only).
	OverflowedBuckets int `json:"overflowed_buckets,omitempty"`
}

// An Observer receives the trace of one semisort call through
// Config.Observer. Methods are invoked on the goroutine orchestrating
// the semisort, in order: AttemptStart, then PhaseStart/PhaseEnd pairs
// for each phase the attempt reaches, then AttemptEnd; retries repeat the
// cycle with the next index. An Observer used by a single semisort at a
// time needs no locking; share one across concurrent semisorts only if
// its implementation synchronizes (the bundled sinks do).
type Observer interface {
	// AttemptStart announces attempt a before its first phase.
	AttemptStart(a Attempt)
	// PhaseStart announces that ph of the given attempt is beginning. It
	// is always balanced by a PhaseEnd on the same goroutine, which makes
	// it the right place to open a runtime/trace region or swap a pprof
	// label set.
	PhaseStart(attempt int, ph Phase)
	// PhaseEnd delivers the completed span.
	PhaseEnd(s Span)
	// AttemptEnd announces the attempt's outcome.
	AttemptEnd(e AttemptEnd)
}

// ---------------------------------------------------------------------
// Scheduler counters.
//
// The fork–join runtime in internal/parallel (the For chunk cursor and
// the token Limiter) probes these process-wide atomic counters. The
// counters only advance while at least one collector is registered
// (EnableSched/DisableSched nest), so the disabled probe cost is one
// atomic load — the same budget as an unarmed fault-injection point.
// Collection is by snapshot delta: callers snapshot before and after a
// region of interest and subtract.

// SchedStats is a plain (non-atomic) snapshot of the scheduler counters;
// Stats.Sched reports the delta accumulated during one semisort call.
// Under concurrent semisorts the counters are shared, so a call's delta
// includes activity of overlapping calls — per-call attribution assumes
// one semisort at a time, which is how the bench harness runs.
type SchedStats struct {
	// ChunksClaimed counts chunks handed out by the flat runtime's atomic
	// cursor (parallel.For and friends). The sequential fast path (one
	// worker, one chunk) claims nothing.
	ChunksClaimed int64 `json:"chunks_claimed"`
	// LimiterSpawns counts fork–join branches the token Limiter ran on a
	// fresh goroutine; LimiterInline counts branches that found no token
	// and ran inline.
	LimiterSpawns int64 `json:"limiter_spawns"`
	LimiterInline int64 `json:"limiter_inline"`
	// LimiterHighWater is the maximum number of limiter tokens observed
	// in use simultaneously (the limiter queue depth). It is a high-water
	// mark since the first of the currently registered collectors called
	// EnableSched, not a delta; Sub keeps the newer snapshot's value.
	// Overlapping collectors share the one gauge.
	LimiterHighWater int64 `json:"limiter_high_water"`
}

// Sub returns the counter deltas s - base. LimiterHighWater, a gauge, is
// carried over from s unchanged.
func (s SchedStats) Sub(base SchedStats) SchedStats {
	return SchedStats{
		ChunksClaimed:    s.ChunksClaimed - base.ChunksClaimed,
		LimiterSpawns:    s.LimiterSpawns - base.LimiterSpawns,
		LimiterInline:    s.LimiterInline - base.LimiterInline,
		LimiterHighWater: s.LimiterHighWater,
	}
}

// Add returns the counter sums s + o, for aggregating the deltas of
// several calls (e.g. one per shuffle partition). LimiterHighWater, a
// gauge, takes the maximum of the two.
func (s SchedStats) Add(o SchedStats) SchedStats {
	hw := s.LimiterHighWater
	if o.LimiterHighWater > hw {
		hw = o.LimiterHighWater
	}
	return SchedStats{
		ChunksClaimed:    s.ChunksClaimed + o.ChunksClaimed,
		LimiterSpawns:    s.LimiterSpawns + o.LimiterSpawns,
		LimiterInline:    s.LimiterInline + o.LimiterInline,
		LimiterHighWater: hw,
	}
}

// Total reports whether any counter moved; handy for plausibility tests.
func (s SchedStats) Total() int64 {
	return s.ChunksClaimed + s.LimiterSpawns + s.LimiterInline
}

// ---------------------------------------------------------------------
// Collector: an in-memory Observer for tests and the bench harness.

// Collector records every event it observes. It is safe for concurrent
// use. The zero value is ready.
type Collector struct {
	mu       sync.Mutex
	attempts []Attempt
	spans    []Span
	ends     []AttemptEnd
}

func (c *Collector) AttemptStart(a Attempt) {
	c.mu.Lock()
	c.attempts = append(c.attempts, a)
	c.mu.Unlock()
}

func (c *Collector) PhaseStart(attempt int, ph Phase) {}

func (c *Collector) PhaseEnd(s Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

func (c *Collector) AttemptEnd(e AttemptEnd) {
	c.mu.Lock()
	c.ends = append(c.ends, e)
	c.mu.Unlock()
}

// Spans returns a copy of the spans observed so far, in emission order.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// Attempts returns a copy of the attempt-start events observed so far.
func (c *Collector) Attempts() []Attempt {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Attempt(nil), c.attempts...)
}

// Ends returns a copy of the attempt-end events observed so far.
func (c *Collector) Ends() []AttemptEnd {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]AttemptEnd(nil), c.ends...)
}

// Reset discards everything recorded.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.attempts, c.spans, c.ends = nil, nil, nil
	c.mu.Unlock()
}
