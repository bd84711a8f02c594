package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/obsv"
	"repro/internal/parallel"
)

// ScatterStrategy selects the Phase 3 placement algorithm.
type ScatterStrategy int

const (
	// ScatterAuto is the deterministic planner, decided before Phase 1
	// from the call alone: a plain semisort takes the dovetail route (one
	// call of the radix kernel over the whole input, with no sample,
	// classification or scatter in front of it), and a fused reduce takes
	// the counting scatter. Unless a plain call asks for probing, its
	// output is byte-identical across Procs and Attempts is always 1. The
	// zero value.
	ScatterAuto ScatterStrategy = iota
	// ScatterProbing is the paper's placement: a pseudo-random slot per
	// record, claimed with CAS, probing linearly on collision. Overflow
	// triggers the Las Vegas retry ladder. Only a plain semisort that asks
	// for it takes it: it is the paper-reproduction mode every
	// internal/bench table pins. A fused reduce ignores it and runs
	// counting.
	ScatterProbing
	// ScatterCounting names the fused reduce's route: the deterministic
	// two-pass counting scatter over the sampled pipeline's buckets. Pass
	// 1 builds a per-block histogram over bucket ids, prefix sums turn it
	// into exact write cursors, and pass 2 folds heavy records into
	// per-worker cells and stores light records for the in-arena reduce.
	// No CAS, no probing, and no overflow retries. Every fused reduce
	// takes it, whatever ScatterStrategy says. As a Config value it is
	// equivalent to ScatterAuto, and kept for API compatibility.
	ScatterCounting
	// ScatterDovetail names the plain semisort's route: the whole input
	// goes to a top-down MSD radix recursion (internal/sortint's
	// DovetailSort kernel) that samples every large node and pulls that
	// node's heavy keys out of its distribution pass. Phases 1–3 do not
	// run, so the route reads none of the sampling and sizing knobs.
	// Per-node decisions are reported in Stats.PlannerRoutes. As a Config
	// value it is equivalent to ScatterAuto, and kept for API
	// compatibility.
	ScatterDovetail
)

func (s ScatterStrategy) String() string {
	switch s {
	case ScatterProbing:
		return "probing"
	case ScatterCounting:
		return "counting"
	case ScatterDovetail:
		return "dovetail"
	default:
		return "auto"
	}
}

// Config holds the algorithm's tuning parameters. The zero value keeps
// the paper's parameters (Section 4): p = 1/16, δ = 16, 2^16 light
// buckets, c = 1.25, slack 1.1. The paper's other Phase 2–3 choices are
// fixed: under-sampled light buckets always merge, bucket sizes round up
// to a power of two, and the probing scatter probes linearly. Its
// route is the deterministic planner (ScatterAuto: the dovetail radix
// kernel for a plain semisort, counting for a fused reduce), not the
// paper's; a plain semisort takes the paper's CAS scatter and probing
// with ScatterStrategy: ScatterProbing. The sampling, bucket and sizing
// knobs are read only by the sampled routes (probing, and counting for a
// fused reduce); the dovetail route ignores them.
type Config struct {
	// Procs is the number of workers; <= 0 means GOMAXPROCS.
	Procs int
	// SampleRate is 1/p: one key is sampled from each block of SampleRate
	// records. Read by the sampled routes (probing and counting); the
	// dovetail route draws no pipeline sample. Default 16.
	SampleRate int
	// Delta is the heavy-key threshold δ: a key with at least Delta
	// occurrences in the sample is heavy, and adjacent light hash ranges
	// merge until a bucket holds at least Delta samples. Read by the
	// sampled routes; the dovetail kernel applies its own per-node
	// threshold. Default 16.
	Delta int
	// MaxLightBuckets caps the number of hash-range slices for light keys.
	// The slices are selected by a key's top bits, so a cap that is not a
	// power of two rounds down to one. The effective count adapts
	// downward for small inputs. Read by the sampled routes. Default 2^16.
	MaxLightBuckets int
	// C is the constant c in the f(s) estimate, with which the probing
	// route sizes its bucket slot arrays. Read by the probing route
	// only. Default 1.25.
	C float64
	// Slack multiplies f(s) when the probing route sizes its bucket slot
	// arrays, and its retry ladder doubles it on a resample. Read by the
	// probing route only. Default 1.1.
	Slack float64
	// ScatterStrategy selects a plain semisort's route: the paper's CAS +
	// probing scatter (ScatterProbing), or the default dovetail radix
	// kernel (every other value). A fused reduce always runs the counting
	// scatter and ignores it.
	ScatterStrategy ScatterStrategy
	// MaxRetries bounds the probing route's Las Vegas attempts after
	// bucket overflow. The retry policy is adaptive: the first restarts
	// regrow only the buckets that overflowed (keeping the same sample);
	// persistent overflow escalates to a fresh sample with doubled Slack.
	// The counting and dovetail routes run one attempt and ignore it.
	// Default 4.
	MaxRetries int
	// Seed makes runs reproducible; retries derive fresh randomness from
	// it deterministically.
	Seed uint64
	// Context, when non-nil, cancels the semisort cooperatively. It is
	// checked at every phase boundary and at parallel-for chunk
	// boundaries (never per record), so the hot path is unaffected. On
	// cancellation the returned error wraps Context.Err().
	Context context.Context
	// MaxSlotBytes caps the scatter scratch any attempt may allocate:
	// the probing route's bucket slots (16 bytes per slot), the counting
	// route's histograms, bucket-id column, heavy directory and cells,
	// light staging area (24 bytes per light record) and Phase 4 reduce
	// arenas (about 48 bytes per record of the largest light bucket, per
	// worker), and the dovetail route's child scratch (16 bytes per
	// record of the largest child of the kernel's top pass, per worker;
	// the kernel checks it once that pass has fixed the children). An
	// attempt whose estimate exceeds the cap degrades to the sequential
	// fallback instead of allocating. 0 means no cap.
	MaxSlotBytes int64
	// MaxRetainedBytes caps the scratch memory a Workspace keeps between
	// calls. After each call (success or failure) the workspace drops
	// buffers, largest first, until its retained total fits the cap, so
	// one huge input does not pin ~4-6x its size for the lifetime of a
	// long-lived Sorter. 0 means retain everything (the historical
	// growth-only policy). See Workspace.Release for dropping it all.
	MaxRetainedBytes int64
	// DisableFallback makes retry exhaustion (probing route) or the
	// MaxSlotBytes cap (every route) return ErrOverflow instead of
	// degrading to the deterministic sequential semisort.
	DisableFallback bool
	// Observer, when non-nil, receives a structured trace of the call:
	// an AttemptStart/AttemptEnd pair per scatter attempt (and per
	// fallback) with a PhaseStart/PhaseEnd span for every phase the
	// attempt reaches, all invoked on the orchestrating goroutine. It
	// also turns on the scheduler counters reported in Stats.Sched. A
	// nil Observer costs one nil-check per phase; see docs/OBSERVABILITY.md.
	Observer obsv.Observer
	// PprofLabels, when set, runs each phase's parallel workers under a
	// pprof label set {"semisort_phase": <phase>} (via runtime/pprof.Do),
	// so CPU profiles attribute samples to the five phases. Off by
	// default: Do installs labels with a goroutine-local write that is
	// measurable on very hot small inputs.
	PprofLabels bool
}

func (c *Config) withDefaults() Config {
	out := Config{}
	if c != nil {
		out = *c
	}
	if out.SampleRate <= 0 {
		out.SampleRate = 16
	}
	if out.Delta <= 0 {
		out.Delta = 16
	}
	if out.MaxLightBuckets <= 0 {
		out.MaxLightBuckets = 1 << 16
	}
	if out.C <= 0 {
		out.C = 1.25
	}
	if out.Slack <= 0 {
		out.Slack = 1.1
	}
	if out.MaxRetries <= 0 {
		out.MaxRetries = 4
	}
	out.Procs = parallel.Procs(out.Procs)
	return out
}

// PhaseTimes records wall-clock time per phase, using the same five-phase
// breakdown as Tables 2 and 3 of the paper.
type PhaseTimes struct {
	SampleSort time.Duration // Phase 1: sampling and sorting
	Buckets    time.Duration // Phase 2: bucket allocation
	Scatter    time.Duration // Phase 3: scattering
	LocalSort  time.Duration // Phase 4: local sort
	Pack       time.Duration // Phase 5: packing
}

// Total returns the sum over phases.
func (p PhaseTimes) Total() time.Duration {
	return p.SampleSort + p.Buckets + p.Scatter + p.LocalSort + p.Pack
}

// Stats describes one semisort execution.
type Stats struct {
	N int // number of input records
	// SampleSize is |S|, the keys the Phase 1 sample drew: exactly
	// N/SampleRate (one per complete block) on the probing and counting
	// routes. Zero on the dovetail route, which draws no pipeline sample.
	SampleSize int
	// SampleRounds is the number of Phase 1 sampling rounds: 1 on the
	// probing and counting routes, which draw one stratified sample, and
	// 0 on the dovetail route.
	SampleRounds int
	// HeavyKeys is the number of distinct heavy keys: the sample's on the
	// probing and counting routes, and on the dovetail route the keys the
	// kernel's nodes pulled out of their distribution passes
	// (PlannerRoutes.HeavyKeysDovetailed).
	HeavyKeys int
	// LightBuckets is the number of light buckets after merging; zero on
	// the dovetail route, which builds no buckets.
	LightBuckets int
	// SlotsAllocated is the total bucket-array slot count the winning
	// attempt allocated. On the probing path it is ≈ Σ slack·f(s) over
	// the buckets; the counting and dovetail paths place records at exact
	// offsets and report exactly N.
	SlotsAllocated int
	// HeavyRecords counts records routed through the heavy path: placed
	// in heavy-bucket slots on the probing route, placed in a kernel
	// node's heavy bins on the dovetail route, folded into per-worker
	// accumulator cells (or, for a Histogram, counted by pass 1 and
	// skipped) on a fused reduce.
	HeavyRecords int
	// EffectiveSlack is the probing route's slack for the attempt that
	// produced the output (doubled per resample). The other routes read
	// no slack and echo Config.Slack.
	EffectiveSlack float64
	Phases         PhaseTimes // per-phase wall-clock breakdown

	// ReducedGroups is the number of groups a fused reduce produced
	// (ReduceShared/HistogramShared): one output record per distinct
	// key. Zero on a plain semisort.
	ReducedGroups int

	// Retries counts the probing route's scatter attempts that failed
	// before the output was produced; it is always Attempts-1, so zero
	// on the other routes. A retry is NOT necessarily a Las Vegas restart
	// in the paper's sense: the first retries on a sample keep that
	// sample and regrow only the buckets that overflowed, and only the
	// escalation path — fresh sample, doubled slack — restarts from
	// Phase 1. Config.Observer distinguishes the two (the AttemptStart
	// kinds "boosted" vs "resample").
	Retries int

	// MaxProbeCluster (probing route only) is the longest linear-probe
	// run any record needed to claim a slot in Phase 3: the number of
	// occupied slots it stepped past. It is the empirical counterpart of
	// the paper's O(log n) w.h.p. probe-cluster bound (Section 3,
	// placement problem); a value far above ~log2(n) means the size
	// estimate f(s) is too tight for the workload. Always zero on the
	// counting and dovetail routes, which do not probe.
	MaxProbeCluster int

	// ScatterStrategy names the route the last attempt took: "probing",
	// "counting" or "dovetail". It is decided before Phase 1, from the
	// call alone: "counting" on every fused reduce, "probing" on a plain
	// semisort with an explicit ScatterProbing, and "dovetail" on every
	// other plain semisort. Empty only on an empty input.
	ScatterStrategy string
	// PlannerRoutes breaks down the skew-adaptive planner's routing
	// decisions for the attempt that produced the output. Zero on an
	// empty input; after a fallback it holds what the failed attempt
	// recorded.
	PlannerRoutes PlannerRoutes
	// LocalSortRanges is the number of size-aware bucket ranges the Phase
	// 4 schedule cut the light buckets into (1 at Procs == 1, at most
	// 8 × Procs otherwise). Zero when the attempt had no light buckets,
	// and on the dovetail route, whose Phase 4 is the radix recursion
	// rather than a per-bucket schedule.
	LocalSortRanges int

	// Recovery bookkeeping (Attempts == 1 and the rest zero on a clean
	// first-attempt success, and always so on the counting and dovetail
	// routes, which run one attempt).

	// Attempts counts scatter attempts executed, successful or not
	// (always Retries+1). The sequential fallback is not a scatter
	// attempt: a run that degrades reports the attempts that overflowed
	// and FallbackUsed, and Attempts does not count the fallback itself.
	Attempts int
	// OverflowedBuckets (probing route only) sums, over the failed
	// attempts, the number of buckets that rejected at least one record
	// during that attempt's scatter. A bucket that overflows in two
	// consecutive attempts is counted twice.
	OverflowedBuckets int
	// OverflowDeficit (probing route only) counts records observed
	// failing placement across all failed attempts — a lower bound on how
	// undersized the overflowed buckets were (each failed attempt stops
	// at its first rejected record per worker).
	OverflowDeficit int
	// FallbackUsed reports that the output came from the deterministic
	// sequential fallback after retry exhaustion or the MaxSlotBytes cap.
	FallbackUsed bool

	// Sched holds the scheduler-counter deltas accumulated during this
	// call: chunks claimed by the flat runtime's cursor and the token
	// limiter's spawn/inline/queue-depth figures. Collected only while
	// Config.Observer is non-nil (the counters are process-global, so
	// concurrent semisorts fold into each other's deltas); all zero
	// otherwise. See docs/OBSERVABILITY.md for each counter's meaning.
	Sched obsv.SchedStats
}

// PlannerRoutes reports where the skew-adaptive planner sent the records
// of one attempt. Probing and counting placements are one top-level
// decision over the whole input; the dovetail route keeps deciding per
// recursion node, and its counts land here after the kernel returns. A
// sweep across duplication levels on the dovetail route watches these
// flip from pure radix (RadixNodes high, HeavyKeysDovetailed zero) on
// near-unique inputs to dovetail nodes (DovetailNodes and
// HeavyKeysDovetailed set) on heavily duplicated ones; see
// docs/OBSERVABILITY.md.
type PlannerRoutes struct {
	// ScatterNodes is 1 when the top level routed to the probing or
	// counting scatter — a plain ScatterProbing request, or a fused
	// reduce — and 0 when the dovetail radix kernel ran.
	ScatterNodes int
	// RadixNodes counts dovetail recursion nodes whose sample found no
	// heavy key, so they ran a plain MSD radix distribution pass, plus
	// one for the top-level hand-off of the whole input to the kernel.
	RadixNodes int64
	// DovetailNodes counts dovetail recursion nodes that pulled heavy
	// keys out of their distribution pass.
	DovetailNodes int64
	// HeavyKeysDovetailed totals the heavy keys those nodes placed.
	HeavyKeysDovetailed int64
}

// ErrOverflow is the sentinel wrapped by overflow-related errors. It
// escapes SemisortWS only when DisableFallback is set and either every
// probing attempt overflowed or an attempt hit MaxSlotBytes; otherwise
// the call degrades to the sequential semisort instead.
var ErrOverflow = errors.New("semisort: bucket overflow")

// errSlotCap aborts an attempt whose size estimate exceeds
// Config.MaxSlotBytes; SemisortWS reacts by degrading to the fallback.
var errSlotCap = errors.New("semisort: slot memory cap exceeded")

// resolveScatter is the planner's top-level route, a function of the
// Config and the call kind only, so it is known before Phase 1, and each
// route serves exactly one call kind. Every fused reduce goes to the
// counting scatter, whose pass 2 folds records as it stores them; its
// exact offsets cannot overflow, so a fused call finishes in one attempt
// whatever ScatterStrategy says. A plain semisort goes to the paper's
// probing scatter on an explicit ScatterProbing: the one route that sizes
// f(s) slots, and with them overflow and the retries of runAttempts.
// Every other plain call goes to the dovetail route: the radix kernel
// finds heavy keys per node, in its own distribution passes.
func resolveScatter(c *Config, fused bool) ScatterStrategy {
	switch {
	case fused:
		return ScatterCounting
	case c.ScatterStrategy == ScatterProbing:
		return ScatterProbing
	}
	return ScatterDovetail
}
