package semisort

// Aggregation helpers built on the semisort. These are the operations the
// paper's applications reduce to — MapReduce's shuffle+reduce and SQL's
// GROUP BY aggregates — packaged for direct use.
//
// CountBy, SumBy, Distinct and ReduceBy (when given a Merge) run FUSED on
// the core's counting scatter: the fold happens inside the semisort
// pipeline — heavy keys accumulate into per-worker cells, light buckets
// reduce in-arena during Phase 4 — so no grouped intermediate (and none
// of its per-group slice headers) is ever materialized. ReduceBy without
// a Merge, and MaxBy, materialize groups first and fold sequentially,
// preserving first-appearance fold order. See docs/AGGREGATION.md for
// when each path runs and what it requires.

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/rec"
)

// Number covers the numeric types SumBy can accumulate.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// A Reduction describes how ReduceBy folds one group: Fold accumulates
// one item into a partial accumulator (starting from Identity), and
// Merge combines two partial accumulators of the same group.
//
// With Merge set, the reduction runs fused inside the pipeline: pipeline
// workers fold disjoint subsets of a group concurrently and their
// partials are merged once at the end. Fold and merge order are
// scheduling-dependent, so Identity/Fold/Merge must form a commutative
// monoid (order-insensitive, e.g. sums, counts, min/max, bitwise or) for
// the result to be well-defined. Fold and Merge run concurrently on
// pipeline workers and must not touch shared state.
//
// With Merge nil, ReduceBy materializes each group first and folds it
// sequentially in group order — the reference semantics for folds that
// are not commutative monoids.
type Reduction[T, A any] struct {
	Identity A
	Fold     func(acc A, item T) A
	Merge    func(a, b A) A
}

// noCell is the fused accumulator sentinel: "no slab cell assigned yet".
const noCell = ^uint64(0)

// fusedReduce hashes every item's key to a 64-bit record (Value = item
// index) and runs the fused core reduce over the hashes, retrying with a
// fresh hash seed when the spec's callbacks report a 64-bit collision
// between distinct keys via collided (the Las Vegas conversion By uses,
// with the verification riding inside the fold instead of a second
// pass). Every hash-seed attempt starts from a clear collided flag and,
// when reset is non-nil, calls reset first so a spec keeping state behind
// its accumulators (ReduceBy's cell slab) starts empty. The returned
// group records and representative indices are valid until the
// function's workspace is garbage-collected; err wraps *PanicError if a
// user callback panicked on a pipeline worker.
func fusedReduce[T any, K comparable](items []T, key func(T) K, cfg *Config,
	sp core.ReduceSpec, collided *atomic.Bool, reset func()) (out []rec.Record, reps []uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*parallel.PanicError)
			if !ok {
				panic(r) // not from a fork–join worker; let it crash
			}
			out, reps, err = nil, nil, fmt.Errorf("semisort: panic in user callback: %w", pe)
		}
	}()
	n := len(items)
	procs := 0
	var obs obsv.Observer
	if cfg != nil {
		procs = cfg.Procs
		obs = cfg.Observer
	}
	var epoch time.Time
	if obs != nil {
		epoch = time.Now()
	}
	recs := make([]rec.Record, n)
	var ws core.Workspace
	var lastErr error
	for attempt := 0; attempt < genericRetries; attempt++ {
		collided.Store(false)
		if reset != nil {
			reset()
		}
		seed := maphash.MakeSeed()
		if obs != nil {
			obs.PhaseStart(attempt, obsv.PhaseHash)
		}
		t0 := time.Now()
		parallel.For(procs, n, 2048, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				recs[i] = rec.Record{
					Key:   maphash.Comparable(seed, key(items[i])),
					Value: uint64(i),
				}
			}
		})
		if obs != nil {
			obs.PhaseEnd(obsv.Span{
				Attempt: attempt, Phase: obsv.PhaseHash,
				Start: t0.Sub(epoch), Duration: time.Since(t0),
				Outcome: obsv.OutcomeOK,
			})
		}
		out, reps, _, err := core.ReduceShared(&ws, recs, cfg, sp)
		if err != nil {
			return nil, nil, err
		}
		if fault.Should(fault.HashCollision) {
			collided.Store(true)
		}
		if !collided.Load() {
			return out, reps, nil
		}
		lastErr = fmt.Errorf("semisort: 64-bit hash collision between distinct keys (attempt %d)", attempt+1)
	}
	return nil, nil, lastErr
}

// sameKey is the Las Vegas check every fused fold and merge runs: items
// v and rep share a 64-bit hash, so their original keys must be equal,
// and a mismatch flags a collision.
func sameKey[T any, K comparable](items []T, key func(T) K, collided *atomic.Bool, v, rep uint64) {
	if v != rep && key(items[v]) != key(items[rep]) {
		collided.Store(true)
	}
}

// countSpec builds the fused pure-count spec shared by CountBy and
// Distinct: the accumulator is the multiplicity itself (no cell slab),
// and the fold doubles as the collision check — two items in one group
// whose original keys differ mean a 64-bit hash collision.
func countSpec[T any, K comparable](items []T, key func(T) K, collided *atomic.Bool) core.ReduceSpec {
	return core.ReduceSpec{
		Fold: func(acc, rep, v uint64) uint64 {
			sameKey(items, key, collided, v, rep)
			return acc + 1
		},
		Merge: func(a, repA, b, repB uint64) uint64 {
			sameKey(items, key, collided, repB, repA)
			return a + b
		},
	}
}

// sumSpec builds SumBy's fused spec: like countSpec, the accumulator is
// the sum itself. Integer kinds add in uint64, whose two's-complement
// wrap truncates to the same N as summing in N would; float kinds keep
// N's bits in the accumulator and add at N's own width. The returned
// decode turns a final accumulator back into N. Every spec starts from
// the zero accumulator, which is N's zero for every kind.
func sumSpec[T any, K comparable, N Number](items []T, key func(T) K, val func(T) N, collided *atomic.Bool) (core.ReduceSpec, func(uint64) N) {
	switch reflect.TypeFor[N]().Kind() {
	case reflect.Float32:
		add := func(a uint64, b float32) uint64 {
			return uint64(math.Float32bits(math.Float32frombits(uint32(a)) + b))
		}
		return core.ReduceSpec{
			Fold: func(acc, rep, v uint64) uint64 {
				sameKey(items, key, collided, v, rep)
				return add(acc, float32(val(items[v])))
			},
			Merge: func(a, repA, b, repB uint64) uint64 {
				sameKey(items, key, collided, repB, repA)
				return add(a, math.Float32frombits(uint32(b)))
			},
		}, func(acc uint64) N { return N(math.Float32frombits(uint32(acc))) }
	case reflect.Float64:
		add := func(a uint64, b float64) uint64 {
			return math.Float64bits(math.Float64frombits(a) + b)
		}
		return core.ReduceSpec{
			Fold: func(acc, rep, v uint64) uint64 {
				sameKey(items, key, collided, v, rep)
				return add(acc, float64(val(items[v])))
			},
			Merge: func(a, repA, b, repB uint64) uint64 {
				sameKey(items, key, collided, repB, repA)
				return add(a, math.Float64frombits(b))
			},
		}, func(acc uint64) N { return N(math.Float64frombits(acc)) }
	}
	return core.ReduceSpec{
		Fold: func(acc, rep, v uint64) uint64 {
			sameKey(items, key, collided, v, rep)
			return acc + uint64(val(items[v]))
		},
		Merge: func(a, repA, b, repB uint64) uint64 {
			sameKey(items, key, collided, repB, repA)
			return a + b
		},
	}, func(acc uint64) N { return N(acc) }
}

// CountBy returns the multiplicity of each key among items. It runs
// fused: counts accumulate inside the pipeline and no grouped
// intermediate is materialized.
func CountBy[T any, K comparable](items []T, key func(T) K, cfg *Config) (map[K]int, error) {
	var collided atomic.Bool
	out, reps, err := fusedReduce(items, key, cfg, countSpec(items, key, &collided), &collided, nil)
	if err != nil {
		return nil, err
	}
	m := make(map[K]int, len(out))
	for g := range out {
		m[key(items[reps[g]])] = int(out[g].Value)
	}
	return m, nil
}

// SumBy groups items by key and sums val over each group, fused inside
// the pipeline. Addition over floating-point values is not associative,
// so float sums may differ across runs in the last units of precision
// (the summation order is scheduling-dependent); integer sums are exact.
//
// Like CountBy, SumBy keeps each group's sum in the pipeline's own
// accumulator, so it needs no per-group storage beyond the output.
func SumBy[T any, K comparable, N Number](items []T, key func(T) K, val func(T) N, cfg *Config) (map[K]N, error) {
	var collided atomic.Bool
	sp, decode := sumSpec(items, key, val, &collided)
	out, reps, err := fusedReduce(items, key, cfg, sp, &collided, nil)
	if err != nil {
		return nil, err
	}
	m := make(map[K]N, len(out))
	for g := range out {
		m[key(items[reps[g]])] = decode(out[g].Value)
	}
	return m, nil
}

// ReduceBy groups items by key and folds each group with r. It is the
// general shuffle+reduce of MapReduce.
//
// With r.Merge set the reduction runs fused (see Reduction for the
// commutative-monoid requirement); with r.Merge nil each group is
// materialized and folded sequentially from r.Identity in group order.
func ReduceBy[T any, K comparable, A any](items []T, key func(T) K, r Reduction[T, A], cfg *Config) (map[K]A, error) {
	if r.Fold == nil {
		return nil, errors.New("semisort: ReduceBy needs a Fold")
	}
	if r.Merge == nil {
		return reduceByMaterialized(items, key, r, cfg)
	}

	// The fused accumulators are uint64, so accumulators of arbitrary
	// type A live in a pre-sized slab the uint64 indexes. Every slab cell
	// is claimed by a group's first fold and each of the n records
	// triggers at most one first fold per core call, so n cells always
	// suffice; fusedReduce rewinds the slab before each hash-seed attempt.
	cells := make([]A, len(items))
	var next atomic.Uint64
	var collided atomic.Bool
	sp := core.ReduceSpec{
		Identity: noCell,
		Fold: func(acc, rep, v uint64) uint64 {
			sameKey(items, key, &collided, v, rep)
			if acc == noCell {
				c := next.Add(1) - 1
				cells[c] = r.Fold(r.Identity, items[v])
				return c
			}
			cells[acc] = r.Fold(cells[acc], items[v])
			return acc
		},
		Merge: func(a, repA, b, repB uint64) uint64 {
			sameKey(items, key, &collided, repB, repA)
			cells[a] = r.Merge(cells[a], cells[b])
			return a
		},
	}
	out, reps, err := fusedReduce(items, key, cfg, sp, &collided, func() { next.Store(0) })
	if err != nil {
		return nil, err
	}
	m := make(map[K]A, len(out))
	for g := range out {
		m[key(items[reps[g]])] = cells[out[g].Value]
	}
	return m, nil
}

// reduceByMaterialized is the materialize-then-reduce reference: group
// first, then fold each group sequentially in group order. ReduceBy
// routes here when r.Merge is nil; the differential tests fold both
// paths over the same inputs.
func reduceByMaterialized[T any, K comparable, A any](items []T, key func(T) K, r Reduction[T, A], cfg *Config) (map[K]A, error) {
	groups, err := GroupBy(items, key, cfg)
	if err != nil {
		return nil, err
	}
	out := make(map[K]A)
	for k, g := range groups {
		acc := r.Identity
		for _, item := range g {
			acc = r.Fold(acc, item)
		}
		out[k] = acc
	}
	return out, nil
}

// Distinct returns one representative per distinct value of items, in
// unspecified order. It is the semisort form of SQL's DISTINCT, run
// fused: only the representatives are ever written out.
func Distinct[T comparable](items []T, cfg *Config) ([]T, error) {
	key := func(v T) T { return v }
	var collided atomic.Bool
	out, reps, err := fusedReduce(items, key, cfg, countSpec(items, key, &collided), &collided, nil)
	if err != nil {
		return nil, err
	}
	res := make([]T, len(out))
	for g := range res {
		res[g] = items[reps[g]]
	}
	return res, nil
}

// MaxBy groups items by key and keeps, per group, the item with the
// greatest measure. Ties keep the first encountered — an order-sensitive
// guarantee a scheduling-dependent fused merge cannot provide, so MaxBy
// stays on the materialized path.
func MaxBy[T any, K comparable, N Number](items []T, key func(T) K, measure func(T) N, cfg *Config) (map[K]T, error) {
	groups, err := GroupBy(items, key, cfg)
	if err != nil {
		return nil, err
	}
	out := make(map[K]T)
	for k, g := range groups {
		best := g[0]
		bestV := measure(best)
		for _, item := range g[1:] {
			if v := measure(item); v > bestV {
				best, bestV = item, v
			}
		}
		out[k] = best
	}
	return out, nil
}
