// Package core implements the top-down parallel semisort algorithm of
// Gu, Shun, Sun and Blelloch (SPAA 2015).
//
// Given an array of records whose 64-bit keys are (or behave like) uniform
// hash values, Semisort returns the records reordered so that equal keys
// are contiguous. The algorithm runs in five phases, mirroring Section 4
// of the paper; the implementation is an explicit pipeline with one file
// per stage:
//
//  1. Sampling and sorting (sample.go): pick one key from every
//     SampleRate-record block (stratified sampling with probability
//     p = 1/SampleRate) and sort the sample with the parallel radix sort.
//  2. Bucket construction (classify.go, buckets.go): classify sampled keys
//     as heavy (≥ Delta sample occurrences) or light; make one bucket per
//     heavy key and one per hash range of light keys (the probing scatter
//     sizes each with the high-probability estimate f(s) of Section 3.1);
//     record heavy keys in a phase-concurrent hash table. Adjacent light
//     buckets with fewer than Delta samples are merged (the ~10% memory
//     optimization of Phase 2).
//  3. Scattering (scatter_probing.go, scatter_counting.go): the paper's
//     placement (ScatterProbing) writes every record to a pseudo-random
//     slot of its bucket, claiming slots with compare-and-swap and linear
//     probing on collision. A fused reduce runs a deterministic two-pass
//     counting scatter instead, which computes exact per-bucket offsets,
//     needs no atomics, and folds heavy records into per-worker cells.
//  4. Local sort (localsort.go): compact each light bucket and group it
//     locally with the introsort hybrid (the paper's std::sort choice)
//     over size-aware bucket ranges; a fused reduce folds each bucket in
//     a naming table (reduce.go).
//  5. Packing (pack.go): compact the heavy region with the interval
//     technique (Section 4, Phase 5) and copy the already-compact light
//     buckets, all into one contiguous output array.
//
// The planner decides the route from the call alone, before Phase 1
// (resolveScatter), and each route serves one call kind. A fused reduce
// runs the five phases above with the counting scatter, whatever
// ScatterStrategy says. A plain semisort with an explicit ScatterProbing
// runs them with the paper's probing scatter. Every other plain
// semisort skips Phases 1–3 (and the pack): its Phase 4 is one call of
// the DovetailSort radix kernel over the whole input
// (scatter_dovetail.go), a top-down MSD recursion that samples every
// large node and pulls that node's heavy keys out of its own
// distribution pass (arXiv 2401.00710), so heavy keys are found where
// they are, per node, rather than by a pipeline-level sample. Both
// default routes are deterministic, and default output is byte-identical
// across Procs.
//
// The per-attempt state threading the stages together is the plan
// (plan.go); every buffer the stages touch is owned by the Workspace
// (workspace.go), so a warm workspace executes the whole pipeline without
// allocating. The two Phase 3 placements implement one scatterStage
// contract; each sizes its own scratch at the end of Phase 2 and
// determines how Phases 4 and 5 traverse its layout.
//
// The counting and dovetail routes place records at exact offsets and
// cannot overflow, so they finish in one attempt. Only the probing
// scatter is Las Vegas: an overflow (a bucket smaller than its actual
// multiplicity, which has probability O(n^{-c})) is detected and the
// algorithm restarts with a fresh sample and doubled slack, exactly as
// the end of Section 3 prescribes. The attempt driver is runAttempts
// (attempts.go).
package core

import (
	"context"
	"fmt"

	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/rec"
)

// Semisort returns a new array holding the records of a with equal keys
// contiguous. The input is not modified. Callers performing many semisorts
// should use SemisortWS with a reused Workspace.
func Semisort(a []rec.Record, cfg *Config) ([]rec.Record, Stats, error) {
	return SemisortWS(nil, a, cfg)
}

// SemisortWS is Semisort with a caller-managed scratch workspace. A nil ws
// allocates a private workspace for this call.
//
// Failure handling (see DESIGN.md, "Failure model & recovery guarantees"):
// on the probing route, bucket overflow restarts from Phase 1 with a
// fresh sample and doubled slack, up to 4 attempts, and exhaustion
// degrades to the deterministic sequential semisort unless
// DisableFallback is set. Every route degrades the same way when its
// scratch would exceed MaxSlotBytes. A panic on a fork–join worker (e.g.
// out of memory in one chunk) is returned as an error wrapping
// *parallel.PanicError. A canceled Config.Context returns an error
// wrapping the context's error.
func SemisortWS(ws *Workspace, a []rec.Record, cfg *Config) ([]rec.Record, Stats, error) {
	out, _, stats, err := semisortInto(ws, nil, a, cfg, false, nil)
	return out, stats, err
}

// SemisortInto is SemisortWS writing the output into dst when
// cap(dst) >= len(a) and dst does not alias a; otherwise a fresh output
// array is allocated exactly as SemisortWS would. The returned slice is
// the one actually used. The input is never modified.
func SemisortInto(ws *Workspace, dst, a []rec.Record, cfg *Config) ([]rec.Record, Stats, error) {
	out, _, stats, err := semisortInto(ws, dst, a, cfg, false, nil)
	return out, stats, err
}

// SemisortShared is SemisortWS returning a slice owned by the workspace:
// the output buffer is retained in ws and reused by the next Shared call,
// so a steady-state caller allocates nothing at all. The returned slice is
// only valid until the next call through ws (passing it back in as the
// next input is safe — aliasing is detected and a fresh buffer is used).
func SemisortShared(ws *Workspace, a []rec.Record, cfg *Config) ([]rec.Record, Stats, error) {
	if ws == nil {
		ws = &Workspace{}
	}
	out, _, stats, err := semisortInto(ws, ws.out, a, cfg, true, nil)
	return out, stats, err
}

// semisortInto runs the call through the attempt driver (runAttempts):
// one attempt on the counting and dovetail routes, the Las Vegas restarts
// on the probing route, and the sequential fallback when either gives
// up. When retain is set the produced output is kept in ws.out for the
// next Shared call. A non-nil red makes the call a fused reduce, which
// the planner sends to the counting scatter (reduce.go): the output is
// then one record per group, with reps its parallel representative slice
// (nil on plain semisorts). The deferred
// epilogue drops the plan's references to caller memory and enforces
// Config.MaxRetainedBytes, whatever path returned. A nil ws allocates a
// private workspace for the call.
func semisortInto(ws *Workspace, dst, a []rec.Record, cfg *Config, retain bool, red *ReduceSpec) (out []rec.Record, reps []uint64, stats Stats, err error) {
	if ws == nil {
		ws = &Workspace{}
	}
	c := cfg.withDefaults()
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*parallel.PanicError)
			if !ok {
				panic(r) // not from a fork–join worker; let it crash
			}
			out, reps, err = nil, nil, fmt.Errorf("semisort: worker panic: %w", pe)
		}
		if retain && out != nil {
			ws.out = out
		}
		ws.plan.clearRefs()
		ws.shrink(c.MaxRetainedBytes)
	}()

	tr := newTracer(&c)
	if tr.obs != nil {
		// Scheduler counters are process-global and cumulative; register
		// a collector for the duration and report this call's delta.
		obsv.EnableSched()
		defer obsv.DisableSched()
		schedBase := obsv.SchedSnapshot()
		defer func() { stats.Sched = obsv.SchedSnapshot().Sub(schedBase) }()
	}

	return runAttempts(ws, dst, a, c, &tr, red)
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
