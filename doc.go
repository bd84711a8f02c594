// Package semisort provides a parallel semisort: it reorders records so
// that records with equal keys are contiguous, without the full cost of
// sorting. It implements the top-down parallel semisort algorithm of Gu,
// Shun, Sun and Blelloch (SPAA 2015), which runs in linear expected work
// and logarithmic depth and, on the paper's 40-core machine, outperformed
// an equally-optimized radix sort by 1.7–1.9x.
//
// # Quick start
//
// For records that already carry 64-bit hashed keys (the paper's setting):
//
//	recs := []semisort.Record{{Key: h1, Value: 7}, {Key: h2, Value: 8}, ...}
//	out, err := semisort.Records(recs, nil)
//
// For arbitrary Go values, use the generic front-end, which hashes keys
// for you and verifies there were no hash collisions (rehashing if so):
//
//	people := []Person{...}
//	grouped, err := semisort.By(people, func(p Person) string { return p.City }, nil)
//
// or iterate groups directly:
//
//	groups, err := semisort.GroupBy(people, func(p Person) string { return p.City }, nil)
//	for city, residents := range groups { ... }
//
// # Algorithm
//
// The algorithm samples the keys, classifies them as heavy (frequent) or
// light, allocates an array per heavy key and per hash range of light keys
// using a precise high-probability size estimate, scatters all records into
// their arrays with atomic claims, locally sorts the small light buckets,
// and packs everything into one contiguous output. That is the paper's
// construction, selected with ScatterProbing. The default planner is
// deterministic instead, and decides from the call before any sampling: a
// plain semisort is one call of a top-down MSD radix kernel (DovetailSort,
// arXiv 2401.00710) that samples each large node itself and pulls that
// node's heavy keys out of its distribution pass, with no pipeline
// sample, classification or scatter in front of it; a fused reduction
// keeps the sampled pipeline with a two-pass counting scatter, whatever
// ScatterStrategy says. Default
// output is byte-identical across Procs. See DESIGN.md and the
// internal/core package for the full construction.
//
// # Fused aggregation
//
// When the caller wants one accumulator per group rather than the groups
// themselves, the aggregation helpers fold during the semisort instead of
// materializing the grouped array: heavy keys accumulate into per-worker
// cells merged once at pack time, light buckets reduce in place. CountBy,
// SumBy and Distinct are always fused; ReduceBy fuses when given a Merge
// (Identity/Fold/Merge must form a commutative monoid — with Merge nil it
// reduces over materialized groups, the right mode for order-sensitive
// folds, which is also why MaxBy never fuses). ReduceRecords and
// Histogram are the record-level forms, and a Sorter's ReduceShared/
// HistogramShared run them with zero steady-state allocations. See
// docs/AGGREGATION.md for semantics, determinism and memory guarantees.
//
// # Failure model
//
// All entry points are panic-safe and cancellable: a panic on a parallel
// worker — including one raised by a user callback passed to By or GroupBy —
// is captured with its stack and returned as an error wrapping *PanicError,
// never re-thrown on an unrelated goroutine. RecordsCtx (or Config.Context)
// cancels cooperatively, checked at phase and chunk boundaries only so the
// hot path is unaffected. Bucket overflow — the probing scatter's Las
// Vegas failure mode, which the default deterministic routes cannot hit —
// retries adaptively and, if retries are exhausted, degrades to a
// deterministic sequential semisort instead of failing. See DESIGN.md,
// "Failure model & recovery guarantees".
//
// # Observability
//
// Setting Config.Observer streams a structured trace of each call: one
// span per phase per attempt, including the retry and fallback attempts
// the failure model can take, plus scheduler counters in Stats.Sched.
// Collector buffers events in memory, NewJSONSink writes them as JSON
// lines, and TraceRegionSink maps phases onto runtime/trace regions;
// Config.PprofLabels additionally tags each phase's workers so CPU
// profiles split by phase. Instrumentation follows a strict
// zero-cost-when-disabled budget — a nil Observer costs one nil-check per
// phase, never an allocation. See docs/OBSERVABILITY.md for the event
// and counter catalogue and the bench-baseline workflow built on it.
package semisort
