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
func By[T any, K comparable](items []T, key func(T) K, cfg *Config) (out []T, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*parallel.PanicError)
			if !ok {
				panic(r) // not from a fork–join worker; let it crash
			}
			out, err = nil, fmt.Errorf("semisort: panic in user callback: %w", pe)
		}
	}()
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
	procs := 0
	if cfg != nil {
		procs = cfg.Procs
	}
	parallel.For(procs, len(recs), 4096, func(lo, hi int) {
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
// semisorts the records and verifies that equal hashes mean equal keys,
// rehashing with a fresh seed on a collision. It returns the verified
// semisorted records: visiting items[r.Value] for each r in order yields
// items grouped by key. The records live in the call's own workspace, so
// callers gather straight from them instead of copying out a permutation.
//
// With a Config.Observer set, each rehash attempt contributes a "hash"
// span (keys → 64-bit records) and a "verify" span (the collision check)
// around the core semisort's own trace; their Attempt index is the rehash
// attempt, and a verify span that found a collision ends with outcome
// "collision".
func semisortedBy[T any, K comparable](items []T, key func(T) K, cfg *Config) ([]rec.Record, error) {
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
	span := func(attempt int, ph obsv.Phase, fn func() string) {
		if obs == nil {
			fn()
			return
		}
		obs.PhaseStart(attempt, ph)
		t0 := time.Now()
		outcome := fn()
		obs.PhaseEnd(obsv.Span{
			Attempt:  attempt,
			Phase:    ph,
			Start:    t0.Sub(epoch),
			Duration: time.Since(t0),
			Outcome:  outcome,
		})
	}
	recs := make([]rec.Record, n)

	// One workspace for all rehash attempts: a collision retry (or a Las
	// Vegas retry inside the core) reuses the first attempt's buffers. The
	// returned records are the workspace's shared output; the rest of the
	// workspace dies with this call.
	var ws core.Workspace

	var lastErr error
	for attempt := 0; attempt < genericRetries; attempt++ {
		seed := maphash.MakeSeed()
		span(attempt, obsv.PhaseHash, func() string {
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
		out, _, err := core.SemisortShared(&ws, recs, cfg)
		if err != nil {
			return nil, err
		}
		collided := false
		span(attempt, obsv.PhaseVerify, func() string {
			if collided = hasCollision(procs, out, items, key); collided {
				return obsv.OutcomeCollision
			}
			return obsv.OutcomeOK
		})
		if !collided {
			return out, nil
		}
		lastErr = fmt.Errorf("semisort: 64-bit hash collision between distinct keys (attempt %d)", attempt+1)
	}
	return nil, lastErr
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
