package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/obsv"
	"repro/internal/parallel"
)

// ProbeKind selects the Phase 3 collision strategy.
type ProbeKind int

const (
	// ProbeLinear retries at the next slot on CAS failure (the paper's
	// choice, for cache locality).
	ProbeLinear ProbeKind = iota
	// ProbeRandom draws a fresh random slot on CAS failure (the
	// theoretical placement-problem's per-record strategy); kept for
	// ablation.
	ProbeRandom
	// ProbeBlockRounds runs the placement exactly as Section 3 describes
	// it: the input is partitioned into blocks of ~log n records and
	// placement proceeds in synchronous rounds, each block attempting one
	// uninserted record per round at a fresh random slot. Expected
	// α/(α−1)·log n rounds; kept for ablation against the practical CAS
	// loop.
	ProbeBlockRounds
)

// ScatterStrategy selects the Phase 3 placement algorithm.
type ScatterStrategy int

const (
	// ScatterAuto is the deterministic planner, resolved per attempt from
	// the sample: a duplicate-heavy sample (at least autoHeavySampleFrac
	// of the estimated record mass in heavy runs) or a fused reduce goes
	// to the counting scatter, anything else to the dovetail route (a
	// heavy-key split, then an MSD radix recursion). Unless a non-linear
	// Config.Probe forces probing, its output is byte-identical across
	// Procs and Attempts is always 1. The zero value.
	ScatterAuto ScatterStrategy = iota
	// ScatterProbing is the paper's placement: a pseudo-random slot per
	// record, claimed with CAS, probing on collision (parameterized by
	// Config.Probe). Overflow triggers the Las Vegas retry ladder. Only
	// an explicit request (or a non-linear Probe) selects it: it is the
	// paper-reproduction mode every internal/bench table pins.
	ScatterProbing
	// ScatterCounting is the deterministic two-pass counting scatter: a
	// per-block histogram over bucket ids, prefix sums to exact write
	// cursors, then blocked writes through per-worker staging buffers
	// that flush cache-line-sized runs. No CAS, no probing, and no
	// overflow retries — the offsets are exact, so the path cannot fail.
	ScatterCounting
	// ScatterDovetail names the planner's radix route: one deterministic
	// counting pass splits the sampled heavy keys into packed front
	// groups, and the light remainder is grouped by a top-down MSD radix
	// recursion (internal/sortint's dovetail sort) that re-samples at
	// every node, pulling that node's heavy keys out of its distribution
	// pass. Per-node decisions are reported in Stats.PlannerRoutes. As a
	// Config value it is equivalent to ScatterAuto, which takes this
	// route for light-dominated plain semisorts; it is kept for API
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
// buckets, c = 1.25, slack 1.1, bucket merging on, linear probing. Its
// Phase 3 placement is the deterministic planner (ScatterAuto: counting
// or the dovetail radix route), not the paper's; the paper's CAS scatter
// and probing needs ScatterStrategy: ScatterProbing.
type Config struct {
	// Procs is the number of workers; <= 0 means GOMAXPROCS.
	Procs int
	// SampleRate is 1/p: one key is sampled from each block of SampleRate
	// records. Default 16.
	SampleRate int
	// Delta is the heavy-key threshold δ: a key representing at least
	// Delta·SampleRate records in the sample's estimate is heavy (at the
	// uniform one-shot density that is exactly Delta sample occurrences).
	// Default 16.
	Delta int
	// OneShotSampling restores the paper's single-round stratified sample
	// (one key per SampleRate-record block) instead of the adaptive
	// pilot + top-up loop — the ablation baseline for the sampling
	// experiment. Adaptive runs also degrade to one-shot when the input
	// is too small for a meaningful pilot.
	OneShotSampling bool
	// SamplePilotFactor scales the adaptive pilot's block size: the pilot
	// round keeps one key per SamplePilotFactor×SampleRate records, i.e.
	// 1/SamplePilotFactor of the one-shot sample. Default 4.
	SamplePilotFactor int
	// SampleTolerance is the adaptive loop's convergence target: a hash
	// range stops receiving top-up rounds once the relative overshoot of
	// its f(s) size bound is at most this value. Smaller tolerances spend
	// more of the sample budget on uncertain ranges. Default 0.5.
	SampleTolerance float64
	// SampleMaxRounds caps the adaptive loop's rounds (pilot included);
	// 1 means pilot only. The loop also stops early when every range is
	// within SampleTolerance or the one-shot sample budget is spent.
	// Default 4.
	SampleMaxRounds int
	// MaxLightBuckets caps the number of hash-range slices for light keys.
	// The effective count adapts downward for small inputs. Default 2^16.
	MaxLightBuckets int
	// C is the constant c in the f(s) estimate. Every route's adaptive
	// sampling loop reads it (its convergence target); only the probing
	// route also sizes slots with it. Default 1.25.
	C float64
	// Slack multiplies f(s) when the probing route sizes its bucket slot
	// arrays, and its retry ladder doubles it on a resample. Read by the
	// probing route only. Default 1.1.
	Slack float64
	// DisableBucketMerging turns off the merging of adjacent light buckets
	// that have fewer than Delta samples (ablation).
	DisableBucketMerging bool
	// ExactBucketSizes skips the paper's round-up-to-power-of-two when
	// the probing route sizes bucket arrays, using ⌈Slack·f(s)⌉ exactly.
	// This deviates from the paper's Phase 2 but reduces slot memory (and
	// hence scatter traffic) by ~1.4x on average; see the ablation
	// benches. Read by the probing route only.
	ExactBucketSizes bool
	// Probe selects the Phase 3 collision strategy (probing scatter only).
	// A non-linear probe kind forces ScatterProbing — the alternative
	// probes parameterize the probing placement, so combining them with
	// the counting scatter would be meaningless.
	Probe ProbeKind
	// ScatterStrategy selects the Phase 3 placement: the paper's CAS +
	// probing scatter, the deterministic two-pass counting scatter, or
	// (the default) the deterministic planner's per-attempt choice
	// between counting and the dovetail route, driven by the sample's
	// heavy fraction.
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
	// MaxSlotBytes caps the bucket slot memory (16 bytes per slot) any
	// attempt may allocate. An attempt whose estimate exceeds the cap
	// degrades to the sequential fallback instead of allocating.
	// 0 means no cap.
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
	if out.SamplePilotFactor <= 0 {
		out.SamplePilotFactor = 4
	}
	if out.SampleTolerance <= 0 {
		out.SampleTolerance = 0.5
	}
	if out.SampleMaxRounds <= 0 {
		out.SampleMaxRounds = 4
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
	// SampleSize is |S|: the total keys kept across every sampling round
	// of the winning attempt (cumulative — the pilot plus all top-ups).
	// Under OneShotSampling it is exactly N/SampleRate, as before.
	SampleSize int
	// SampleRounds is the number of sampling rounds the winning attempt
	// executed: 1 for a one-shot sample, an adaptive run that converged at
	// the pilot, or a call routed to dovetail at the pilot because the
	// pilot held no heavy key; up to SampleMaxRounds otherwise.
	SampleRounds int
	HeavyKeys    int // distinct heavy keys
	LightBuckets int // light buckets after merging
	// SlotsAllocated is the total bucket-array slot count the winning
	// attempt allocated. On the probing path it is ≈ Σ slack·f(s) over
	// the buckets (light-only under a fused reduce, which gives heavy
	// buckets no slots); the counting path writes packed output directly
	// and reports exactly N.
	SlotsAllocated int
	// HeavyRecords counts records routed through the heavy path: placed
	// in heavy-bucket slots on a plain semisort, folded into per-worker
	// accumulator cells (or, for a counting Histogram, counted by pass 1
	// and skipped) on a fused reduce.
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
	// run any record needed to claim a slot in Phase 3 — the empirical
	// counterpart of the paper's O(log n) w.h.p. probe-cluster bound
	// (Section 3, placement problem). A value far above ~log2(n) means
	// the size estimate f(s) is too tight for the workload. Always zero
	// on the counting and dovetail routes, which do not probe.
	MaxProbeCluster int

	// ScatterStrategy names the Phase 3 placement the last attempt used:
	// "probing", "counting" or "dovetail". ScatterAuto (and its alias
	// ScatterDovetail) resolves per attempt, from that attempt's sample:
	// counting under heavy duplication or on a fused reduce, dovetail
	// otherwise; only an explicit ScatterProbing reports "probing".
	// Empty only when no attempt reached Phase 2.
	ScatterStrategy string
	// PlannerRoutes breaks down the skew-adaptive planner's routing
	// decisions for the attempt that produced the output. Zero when no
	// attempt reached Phase 2 or the output came from the fallback.
	PlannerRoutes PlannerRoutes
	// ScatterFlushes counts the staging-buffer flushes the counting
	// scatter performed (full cache-line flushes plus end-of-block
	// drains); zero on the probing path, when staging was bypassed, and
	// on a fused reduce (whose counting pass 2 stores records directly).
	ScatterFlushes int64
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
// decision over the whole input; a dovetail placement keeps deciding
// per recursion node, and its counts accumulate here after Phase 4. A
// sweep across duplication levels watches these flip from
// radix-dominant (RadixNodes high, ScatterNodes zero) on near-unique
// inputs to scatter-dominant (ScatterNodes set, RadixNodes zero) on
// heavily duplicated ones; see docs/OBSERVABILITY.md.
type PlannerRoutes struct {
	// ScatterNodes is 1 when the top level routed to the probing or
	// counting scatter — including a planner run whose sample was
	// duplicate-heavy enough, or whose call was a fused reduce, to
	// resolve to counting — and 0 when the dovetail radix path ran.
	ScatterNodes int
	// RadixNodes counts dovetail recursion nodes whose sample found no
	// heavy key, so they ran a plain MSD radix distribution pass.
	RadixNodes int64
	// DovetailNodes counts dovetail recursion nodes that pulled heavy
	// keys out of their distribution pass, plus the pipeline's top-level
	// heavy/light split when the sample produced heavy buckets.
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

// autoHeavySampleFrac is the planner's decision threshold: when at
// least this fraction of the estimated record mass fell in heavy runs,
// the counting scatter beats the dovetail route, whose radix recursion
// would rediscover the same few heavy keys at every node. (Under a
// uniform one-shot sample the mass ratio is the heavy-sample fraction.)
// Exponential λ=n/10^3 (~70% heavy) and Zipf M=10^4 (~2/3 heavy)
// resolve to counting; uniform N=n (no heavy keys) to dovetail.
const autoHeavySampleFrac = 0.5

// probingRoute reports whether the call takes the paper's probing
// scatter: an explicit ScatterProbing, or a non-linear Probe, which
// parameterizes the probing placement and forces it. It is known before
// Phase 1 and is the one decision that brings in f(s) slot sizing, and
// with it overflow and the retries of runAttempts; every other call
// finishes in one attempt.
func probingRoute(c *Config) bool {
	return c.Probe != ProbeLinear || c.ScatterStrategy == ScatterProbing
}

// resolveScatter picks the Phase 3 placement for one attempt — the
// planner's top-level route. Probing (probingRoute) and an explicit
// ScatterCounting are honored. Everything else (ScatterAuto, or its
// alias ScatterDovetail) is the deterministic planner: a duplicate-heavy
// sample, or a fused reduce (whose counting pass 2 folds records as it
// stores them), goes to the counting scatter, and a light-dominated
// plain semisort — including an empty sample, which predicts nothing —
// to the dovetail route.
func resolveScatter(c *Config, heavyMass, totalMass float64, fused bool) ScatterStrategy {
	if probingRoute(c) {
		return ScatterProbing
	}
	if c.ScatterStrategy == ScatterCounting || fused ||
		(totalMass > 0 && heavyMass >= autoHeavySampleFrac*totalMass) {
		return ScatterCounting
	}
	return ScatterDovetail
}
