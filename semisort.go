package semisort

import (
	"context"
	"iter"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rec"
)

// Record is a 16-byte record: a 64-bit hashed key plus a 64-bit payload,
// matching the paper's experimental setup. Records with equal Key are
// grouped together by Records.
type Record = rec.Record

// Config tunes the algorithm; the zero value (and a nil *Config) keeps
// the paper's parameters — sampling probability 1/16, heavy threshold
// δ=16, up to 2^16 light buckets, estimate constant c=1.25, slack 1.1 —
// but places records with the deterministic planner (ScatterAuto). The
// paper's algorithm, CAS scatter with linear probing into power-of-two
// buckets after merging under-sampled light ranges, needs
// ScatterStrategy: ScatterProbing.
type Config = core.Config

// Stats reports what one semisort execution did: sample size, heavy/light
// classification, allocated space, Las Vegas retries, and the per-phase
// time breakdown used throughout the paper's evaluation.
type Stats = core.Stats

// PhaseTimes is the five-phase wall-clock breakdown (sample+sort, bucket
// construction, scatter, local sort, pack).
type PhaseTimes = core.PhaseTimes

// ScatterStrategy selects the Phase 3 placement algorithm (see Config).
type ScatterStrategy = core.ScatterStrategy

// Scatter strategy options: Auto (the default) is the deterministic
// planner, decided from the call before any sampling — every fused
// reduce takes the counting scatter, whatever the strategy says, and
// every plain semisort is one call of a top-down MSD radix kernel that
// finds heavy keys per node (the dovetail route; see Stats.PlannerRoutes
// for where records went). Its output is byte-identical across Procs and
// it never retries. Probing selects the paper's CAS scatter with its Las
// Vegas restart for a plain semisort, the reproduction mode.
// Counting and Dovetail are equivalent to Auto, kept for compatibility.
const (
	ScatterAuto     = core.ScatterAuto
	ScatterProbing  = core.ScatterProbing
	ScatterCounting = core.ScatterCounting
	ScatterDovetail = core.ScatterDovetail
)

// PlannerRoutes breaks down the skew-adaptive planner's routing
// decisions for the attempt that produced the output (see
// Stats.PlannerRoutes): the top-level probing/counting choice plus, on
// the dovetail route, the radix recursion's per-node decisions.
type PlannerRoutes = core.PlannerRoutes

// ErrOverflow is returned (wrapped) when Config.DisableFallback is set and
// either every probing attempt overflowed a bucket or an attempt hit
// Config.MaxSlotBytes; with fallback enabled (the default) both degrade
// to a sequential semisort instead.
var ErrOverflow = core.ErrOverflow

// PanicError carries a panic captured on a parallel worker: the original
// panic value and the worker's stack at the point of panic. Errors returned
// by this package wrap it when a worker (or a user callback running on one)
// panicked; unwrap with errors.As.
type PanicError = parallel.PanicError

// Records returns a new slice containing the records of a with equal keys
// contiguous. Keys are treated as pre-hashed 64-bit values: records are
// grouped by exact Key equality. The input is not modified. A nil cfg
// selects the defaults.
func Records(a []Record, cfg *Config) ([]Record, error) {
	out, _, err := core.Semisort(a, cfg)
	return out, err
}

// RecordsCtx is Records with cooperative cancellation: ctx is checked at
// phase boundaries and parallel-for chunk boundaries (never per record).
// On cancellation the returned error wraps ctx.Err(). It overrides any
// Context already set in cfg; cfg itself is not modified.
func RecordsCtx(ctx context.Context, a []Record, cfg *Config) ([]Record, error) {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	c.Context = ctx
	out, _, err := core.Semisort(a, &c)
	return out, err
}

// RecordsWithStats is Records plus the execution statistics (per-phase
// times, heavy/light breakdown, retries, recovery bookkeeping).
func RecordsWithStats(a []Record, cfg *Config) ([]Record, Stats, error) {
	return core.Semisort(a, cfg)
}

// Runs calls fn(start, end) for each maximal run of equal keys in a
// semisorted slice, in order. It is the canonical way to consume the
// output of Records.
func Runs(a []Record, fn func(start, end int)) {
	rec.Runs(a, fn)
}

// IsSemisorted reports whether records with equal keys are contiguous.
func IsSemisorted(a []Record) bool {
	return rec.IsSemisorted(a)
}

// AllRuns returns an iterator over the maximal runs of equal keys in a
// semisorted slice, yielding (start, end) index pairs in order. It is the
// range-over-func form of Runs:
//
//	for start, end := range semisort.AllRuns(out) { ... }
func AllRuns(a []Record) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		i := 0
		for i < len(a) {
			j := i + 1
			for j < len(a) && a[j].Key == a[i].Key {
				j++
			}
			if !yield(i, j) {
				return
			}
			i = j
		}
	}
}
