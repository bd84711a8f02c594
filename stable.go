package semisort

import (
	"sort"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rec"
)

// StableBy is By with a stability guarantee: within each group, items keep
// their input order. (The group order itself remains unspecified — a total
// group order would be sorting, which semisorting deliberately avoids.)
//
// Stability costs one extra pass that orders each run by original index;
// runs are sorted in parallel across groups. A single group containing
// nearly all records degrades that pass to O(n log n) sequential, like any
// comparison post-sort would.
func StableBy[T any, K comparable](items []T, key func(T) K, cfg *Config) ([]T, error) {
	recs, err := semisortedBy(items, key, cfg)
	if err != nil {
		return nil, err
	}
	// The records are verified, so each run of equal hashes is exactly
	// one group; ordering it by Value restores input order within it.
	procs := 0
	if cfg != nil {
		procs = cfg.Procs
	}
	sortRunsByValue(procs, recs)
	return gatherBy(items, recs, cfg), nil
}

// StableRecords semisorts pre-hashed records with input order preserved
// inside each group (Value is treated as payload, not order; the original
// positions are tracked internally).
func StableRecords(a []Record, cfg *Config) ([]Record, error) {
	n := len(a)
	tagged := make([]rec.Record, n)
	procs := 0
	if cfg != nil {
		procs = cfg.Procs
	}
	parallel.For(procs, n, 8192, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tagged[i] = rec.Record{Key: a[i].Key, Value: uint64(i)}
		}
	})
	out, _, err := core.Semisort(tagged, cfg)
	if err != nil {
		return nil, err
	}
	sortRunsByValue(procs, out)
	result := make([]Record, n)
	parallel.For(procs, n, 8192, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			result[i] = a[out[i].Value]
		}
	})
	return result, nil
}

// sortRunsByValue orders every run of equal keys by ascending Value, in
// parallel across runs.
func sortRunsByValue(procs int, a []rec.Record) {
	// Collect run boundaries sequentially (cheap), sort runs in parallel.
	type span struct{ lo, hi int }
	var runs []span
	i := 0
	for i < len(a) {
		j := i + 1
		for j < len(a) && a[j].Key == a[i].Key {
			j++
		}
		if j-i > 1 {
			runs = append(runs, span{i, j})
		}
		i = j
	}
	parallel.ForEach(procs, len(runs), 1, func(r int) {
		seg := a[runs[r].lo:runs[r].hi]
		sort.Slice(seg, func(x, y int) bool { return seg[x].Value < seg[y].Value })
	})
}
