package semisort

// Record-level fused aggregation: reduce records during the semisort
// instead of grouping first and folding after. Every fused call runs the
// core's counting scatter in one attempt, whatever Config.ScatterStrategy
// says. See docs/AGGREGATION.md for the full surface and its guarantees.

import (
	"repro/internal/core"
)

// A Reducer describes a fused record-level reduction: per distinct key,
// every record's Value is folded into an accumulator starting from
// Identity, and partial accumulators produced by different pipeline
// workers are combined with Merge.
//
// Fold and merge order are scheduling-dependent, so Identity/Fold/Merge
// must form a commutative monoid (sums, counts, min/max, bitwise
// and/or/xor...) for the result to be well-defined. Both callbacks run
// concurrently on pipeline workers and must not touch shared state.
type Reducer struct {
	// Identity is the initial accumulator for every group.
	Identity uint64
	// Fold folds one record's Value into a group accumulator.
	Fold func(acc, value uint64) uint64
	// Merge combines two partial accumulators of one group.
	Merge func(a, b uint64) uint64
}

// spec adapts a Reducer to the core's representative-carrying spec.
func (r Reducer) spec() core.ReduceSpec {
	sp := core.ReduceSpec{Identity: r.Identity}
	if r.Fold != nil {
		f := r.Fold
		sp.Fold = func(acc, _, v uint64) uint64 { return f(acc, v) }
	}
	if r.Merge != nil {
		m := r.Merge
		sp.Merge = func(a, _, b, _ uint64) uint64 { return m(a, b) }
	}
	return sp
}

// ReduceRecords reduces a fused: the result holds one record per
// distinct key — Key the group's key, Value its final accumulator — in
// a group order that is deterministic for a fixed input, Procs and Seed.
// The input is not modified.
// Callers performing many reductions should use a Sorter's Reduce
// methods to reuse scratch memory.
func ReduceRecords(a []Record, r Reducer, cfg *Config) ([]Record, error) {
	out, _, _, err := core.ReduceShared(nil, a, cfg, r.spec())
	return out, err
}

// Histogram counts key multiplicities fused: the result holds one record
// per distinct key with Value its number of occurrences in a. The heavy
// counts come straight from the counting scatter's first-pass histogram,
// so heavy-duplicate inputs are counted without materializing anything.
func Histogram(a []Record, cfg *Config) ([]Record, error) {
	out, _, _, err := core.HistogramShared(nil, a, cfg)
	return out, err
}

// ReduceShared reduces a fused into a Sorter-owned buffer (one record
// per distinct key; see ReduceRecords), so a steady-state caller
// allocates nothing at all. The returned slice is only valid until the
// next call on this Sorter.
func (s *Sorter) ReduceShared(a []Record, r Reducer) ([]Record, Stats, error) {
	out, _, stats, err := core.ReduceShared(&s.ws, a, &s.cfg, r.spec())
	return out, stats, err
}

// ReduceConfigShared is ReduceShared with a one-off configuration — the
// per-request server shape: base config overlaid per request, zero
// allocation per request.
func (s *Sorter) ReduceConfigShared(a []Record, r Reducer, cfg *Config) ([]Record, Stats, error) {
	out, _, stats, err := core.ReduceShared(&s.ws, a, cfg, r.spec())
	return out, stats, err
}

// HistogramShared counts key multiplicities fused into a Sorter-owned
// buffer; see Histogram and ReduceShared.
func (s *Sorter) HistogramShared(a []Record) ([]Record, Stats, error) {
	out, _, stats, err := core.HistogramShared(&s.ws, a, &s.cfg)
	return out, stats, err
}

// HistogramConfigShared is HistogramShared with a one-off configuration.
func (s *Sorter) HistogramConfigShared(a []Record, cfg *Config) ([]Record, Stats, error) {
	out, _, stats, err := core.HistogramShared(&s.ws, a, cfg)
	return out, stats, err
}
