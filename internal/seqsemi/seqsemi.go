// Package seqsemi implements the sequential semisort baselines from
// Section 5.4 of the paper. The paper compares its parallel algorithm (on
// one thread) against "a simple sequential chained hash table-based
// algorithm" and mentions trying several other sequential implementations:
// open addressing on keys with separate chaining on records, and a
// two-phase count-allocate-write approach. All of them are rebuilt here so
// the harness can report the same comparison.
package seqsemi

import (
	"math/bits"

	"repro/internal/hash"
	"repro/internal/rec"
)

// Chained semisorts a using a chained hash table: each distinct key owns a
// linked list of record indices; a final walk over the table emits each
// list contiguously. This is the paper's primary sequential baseline.
func Chained(a []rec.Record) []rec.Record {
	n := len(a)
	out := make([]rec.Record, 0, n)
	if n == 0 {
		return out
	}
	size := 1 << uint(bits.Len(uint(2*n-1)))
	mask := uint64(size - 1)
	// head[slot] = first node index + 1 (0 = empty); node i chains via next.
	head := make([]int32, size)
	next := make([]int32, n)
	keyOf := make([]uint64, size) // key stored at each occupied slot

	// For iteration order we also keep the list of occupied slots in first-
	// appearance order.
	order := make([]int32, 0, 64)

	for i := 0; i < n; i++ {
		k := a[i].Key
		s := hash.Fmix64(k) & mask
		for {
			h := head[s]
			if h == 0 {
				head[s] = int32(i) + 1
				next[i] = 0
				keyOf[s] = k
				order = append(order, int32(s))
				break
			}
			if keyOf[s] == k {
				next[i] = h
				head[s] = int32(i) + 1
				break
			}
			s = (s + 1) & mask
		}
	}
	// Emit each chain; chains are in reverse insertion order, which is fine
	// for semisorting (order within a group is unspecified).
	for _, s := range order {
		for h := head[s]; h != 0; h = next[h-1] {
			out = append(out, a[h-1])
		}
	}
	return out
}

// OpenAddressing semisorts a using open addressing on keys where each
// table entry accumulates its records in a per-key slice (the "open
// addressing on keys and separate chaining on records" variant).
func OpenAddressing(a []rec.Record) []rec.Record {
	n := len(a)
	out := make([]rec.Record, 0, n)
	if n == 0 {
		return out
	}
	size := 1 << uint(bits.Len(uint(2*n-1)))
	mask := uint64(size - 1)
	keys := make([]uint64, size)
	used := make([]bool, size)
	lists := make([][]rec.Record, size)
	order := make([]int32, 0, 64)

	for i := 0; i < n; i++ {
		k := a[i].Key
		s := hash.Fmix64(k) & mask
		for used[s] && keys[s] != k {
			s = (s + 1) & mask
		}
		if !used[s] {
			used[s] = true
			keys[s] = k
			order = append(order, int32(s))
		}
		lists[s] = append(lists[s], a[i])
	}
	for _, s := range order {
		out = append(out, lists[s]...)
	}
	return out
}

// TwoPhase semisorts a by first counting the multiplicity of every key,
// then allocating exact-size output ranges, then writing each record to
// its range (the paper's "two-phase approach").
func TwoPhase(a []rec.Record) []rec.Record {
	return TwoPhaseInto(a, make([]rec.Record, len(a)))
}

// TwoPhaseInto is TwoPhase writing into out, which must hold len(a)
// records and must not overlap a; it returns out[:len(a)].
func TwoPhaseInto(a, out []rec.Record) []rec.Record {
	n := len(a)
	out = out[:n]
	if n == 0 {
		return out
	}
	size := 1 << uint(bits.Len(uint(2*n-1)))
	mask := uint64(size - 1)
	keys := make([]uint64, size)
	used := make([]bool, size)
	counts := make([]int32, size)
	order := make([]int32, 0, 64)

	findSlot := func(k uint64) uint64 {
		s := hash.Fmix64(k) & mask
		for used[s] && keys[s] != k {
			s = (s + 1) & mask
		}
		return s
	}

	// Phase 1: count.
	for i := 0; i < n; i++ {
		s := findSlot(a[i].Key)
		if !used[s] {
			used[s] = true
			keys[s] = a[i].Key
			order = append(order, int32(s))
		}
		counts[s]++
	}
	// Phase 2: allocate offsets.
	off := int32(0)
	for _, s := range order {
		c := counts[s]
		counts[s] = off
		off += c
	}
	// Phase 3: write.
	for i := 0; i < n; i++ {
		s := findSlot(a[i].Key)
		out[counts[s]] = a[i]
		counts[s]++
	}
	return out
}

// GoMap semisorts a using the built-in map, the idiomatic-Go baseline a
// user would write without this library.
func GoMap(a []rec.Record) []rec.Record {
	groups := make(map[uint64][]rec.Record, 64)
	order := make([]uint64, 0, 64)
	for _, r := range a {
		if _, ok := groups[r.Key]; !ok {
			order = append(order, r.Key)
		}
		groups[r.Key] = append(groups[r.Key], r)
	}
	out := make([]rec.Record, 0, len(a))
	for _, k := range order {
		out = append(out, groups[k]...)
	}
	return out
}
