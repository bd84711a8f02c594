package semisort

import (
	"fmt"
	"hash/maphash"
	"iter"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/rec"
)

// genericRetries bounds rehash attempts when a 64-bit hash collision
// between distinct keys is detected (probability ~n²/2^64 per attempt).
const genericRetries = 4

// By reorders items so that items with equal keys (as computed by key) are
// contiguous, and returns the reordered slice. The input is not modified.
//
// Keys are hashed to 64 bits; the result is verified and re-hashed with a
// fresh seed in the (astronomically unlikely) event that two distinct keys
// collide, so the grouping is always exact. This is the Las Vegas
// conversion described at the end of Section 3 of the paper.
//
// Keys compare with ==, so a key containing a floating-point NaN is never
// equal to anything, including itself. Matching Go map semantics (and
// maphash.Comparable, which hashes each NaN occurrence differently), every
// NaN-keyed item therefore lands in its own singleton group.
//
// By is panic-safe: a panic in key while it runs on a parallel worker is
// captured and returned as an error wrapping *PanicError, carrying the
// original panic value and the worker stack.
func By[T any, K comparable](items []T, key func(T) K, cfg *Config) ([]T, error) {
	recs, err := semisortedBy(items, key, cfg)
	if err != nil {
		return nil, err
	}
	return gatherBy(items, recs, cfg), nil
}

// gatherBy returns items reordered as the semisorted records recs list
// them: the result's i-th item is items[recs[i].Value].
func gatherBy[T any](items []T, recs []rec.Record, cfg *Config) []T {
	out := make([]T, len(recs))
	parallel.For(cfgProcs(cfg), len(recs), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = items[recs[i].Value]
		}
	})
	return out
}

// GroupBy reorders items by key and returns an iterator over the groups:
// each yielded pair is a key and the subslice of the reordered items that
// share it. The subslices alias a single backing array; clone them if they
// must outlive the iteration. Group order is unspecified.
func GroupBy[T any, K comparable](items []T, key func(T) K, cfg *Config) (iter.Seq2[K, []T], error) {
	grouped, err := By(items, key, cfg)
	if err != nil {
		return nil, err
	}
	return func(yield func(K, []T) bool) {
		i := 0
		for i < len(grouped) {
			k := key(grouped[i])
			j := i + 1
			for j < len(grouped) && key(grouped[j]) == k {
				j++
			}
			if !yield(k, grouped[i:j]) {
				return
			}
			i = j
		}
	}, nil
}

// CollectGroups is GroupBy materialized into a map from key to group.
func CollectGroups[T any, K comparable](items []T, key func(T) K, cfg *Config) (map[K][]T, error) {
	groups, err := GroupBy(items, key, cfg)
	if err != nil {
		return nil, err
	}
	out := make(map[K][]T)
	for k, g := range groups {
		out[k] = g
	}
	return out, nil
}

// semisortedBy hashes every item's key to a record {hash, item index},
// semisorts the records and verifies that equal hashes mean equal keys
// (hashRetry rehashes on a collision). It returns the verified semisorted
// records: visiting items[r.Value] for each r in order yields items
// grouped by key. The records live in the call's own workspace, so
// callers gather straight from them instead of copying out a permutation.
//
// With a Config.Observer set, each rehash attempt adds a "verify" span
// (the collision check) after hashRetry's "hash" span and the core
// semisort's own trace; a verify span that found a collision ends with
// outcome "collision".
func semisortedBy[T any, K comparable](items []T, key func(T) K, cfg *Config) ([]rec.Record, error) {
	// One workspace for all rehash attempts: a collision retry (or a Las
	// Vegas restart inside the core) reuses the first attempt's buffers.
	// The returned records are the workspace's shared output; the rest of
	// the workspace dies with this call.
	var ws core.Workspace
	var out []rec.Record
	err := hashRetry(items, key, cfg, func(recs []rec.Record, span spanFunc) (bool, error) {
		var err error
		if out, _, err = core.SemisortShared(&ws, recs, cfg); err != nil {
			return false, err
		}
		collided := false
		span(obsv.PhaseVerify, func() string {
			if collided = hasCollision(cfgProcs(cfg), out, items, key); collided {
				return obsv.OutcomeCollision
			}
			return obsv.OutcomeOK
		})
		return !collided, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// spanFunc runs fn as one traced phase of the current hash attempt; fn
// returns the span's outcome.
type spanFunc func(ph obsv.Phase, fn func() string)

// hashRetry is the generic front end's Las Vegas loop, shared by the
// grouping calls (semisortedBy) and the fused reductions (fusedReduce).
// Each attempt hashes every item's key with a fresh seed into a record
// {hash, item index}, traced as a "hash" span whose Attempt is the
// rehash attempt, then hands the records to run, which reports whether
// the grouping it built is free of 64-bit collisions between distinct
// keys. A collision retries with a new seed, up to genericRetries
// attempts. A panic in a user callback on a fork–join worker, in the hash
// pass or inside run, comes back as an error wrapping *PanicError.
func hashRetry[T any, K comparable](items []T, key func(T) K, cfg *Config,
	run func(recs []rec.Record, span spanFunc) (ok bool, err error)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*parallel.PanicError)
			if !ok {
				panic(r) // not from a fork–join worker; let it crash
			}
			err = fmt.Errorf("semisort: panic in user callback: %w", pe)
		}
	}()
	n := len(items)
	procs := cfgProcs(cfg)
	var obs obsv.Observer
	var epoch time.Time
	if cfg != nil && cfg.Observer != nil {
		obs, epoch = cfg.Observer, time.Now()
	}
	recs := make([]rec.Record, n)
	for attempt := 0; attempt < genericRetries; attempt++ {
		span := func(ph obsv.Phase, fn func() string) {
			if obs == nil {
				fn()
				return
			}
			obs.PhaseStart(attempt, ph)
			t0 := time.Now()
			outcome := fn()
			obs.PhaseEnd(obsv.Span{
				Attempt: attempt, Phase: ph,
				Start: t0.Sub(epoch), Duration: time.Since(t0),
				Outcome: outcome,
			})
		}
		seed := maphash.MakeSeed()
		span(obsv.PhaseHash, func() string {
			parallel.For(procs, n, 2048, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					recs[i] = rec.Record{
						Key:   maphash.Comparable(seed, key(items[i])),
						Value: uint64(i),
					}
				}
			})
			return obsv.OutcomeOK
		})
		ok, err := run(recs, span)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
	return fmt.Errorf("semisort: 64-bit hash collision between distinct keys (attempt %d)", genericRetries)
}

// cfgProcs is cfg.Procs, or 0 (all cores) for a nil cfg.
func cfgProcs(cfg *Config) int {
	if cfg == nil {
		return 0
	}
	return cfg.Procs
}

// hasCollision reports whether any run of equal hashes contains two
// distinct original keys. Equal hashes are contiguous after the semisort,
// so comparing neighbors suffices.
func hasCollision[T any, K comparable](procs int, out []rec.Record, items []T, key func(T) K) bool {
	if fault.Should(fault.HashCollision) {
		return true
	}
	n := len(out)
	var collided atomic.Bool
	parallel.For(procs, n, 8192, func(lo, hi int) {
		for i := max(lo, 1); i < hi; i++ {
			if out[i].Key == out[i-1].Key &&
				key(items[out[i].Value]) != key(items[out[i-1].Value]) {
				collided.Store(true)
				return
			}
		}
	})
	return collided.Load()
}
