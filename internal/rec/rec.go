// Package rec defines the record layout shared by every subsystem of the
// semisort library.
//
// The layout matches the SPAA 2015 paper exactly: each record is 16 bytes,
// an 8-byte pre-hashed key plus an 8-byte payload. The paper assumes keys
// have already been hashed into the range [n^k] (k > 2) so that collisions
// between distinct original keys are unlikely; the generic front-end in the
// root package performs that hashing and carries the original item index in
// Value.
package rec

// Record is a 16-byte (key, payload) pair. Key is a 64-bit hash value;
// records with equal Key are considered equal by every semisort routine.
type Record struct {
	Key   uint64
	Value uint64
}

// Runs calls fn(start, end) for every maximal run of equal keys in a,
// in order. It is the canonical way to consume a semisorted array.
func Runs(a []Record, fn func(start, end int)) {
	i := 0
	for i < len(a) {
		j := i + 1
		for j < len(a) && a[j].Key == a[i].Key {
			j++
		}
		fn(i, j)
		i = j
	}
}

// RunsErr calls fn(start, end) for every maximal run of equal keys in a,
// in order, stopping at the first non-nil error and returning it. Use it
// when the consumer can fail: unlike Runs with a captured error, the walk
// ends at the failing run instead of scanning the rest of the array.
func RunsErr(a []Record, fn func(start, end int) error) error {
	i := 0
	for i < len(a) {
		j := i + 1
		for j < len(a) && a[j].Key == a[i].Key {
			j++
		}
		if err := fn(i, j); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// IsSemisorted reports whether records with equal keys are contiguous in a.
// It runs in O(n) time and O(m) space for m distinct keys.
func IsSemisorted(a []Record) bool {
	seen := make(map[uint64]struct{}, 64)
	i := 0
	for i < len(a) {
		k := a[i].Key
		if _, dup := seen[k]; dup {
			return false
		}
		seen[k] = struct{}{}
		for i < len(a) && a[i].Key == k {
			i++
		}
	}
	return true
}

// IsSorted reports whether a is sorted by Key (ascending). Every sorted
// array is also semisorted.
func IsSorted(a []Record) bool {
	for i := 1; i < len(a); i++ {
		if a[i].Key < a[i-1].Key {
			return false
		}
	}
	return true
}

// KeyCounts returns the multiplicity of each distinct key in a.
func KeyCounts(a []Record) map[uint64]int {
	m := make(map[uint64]int, 64)
	for _, r := range a {
		m[r.Key]++
	}
	return m
}

// SamePermutation reports whether b is a permutation of a, treating records
// as (Key, Value) multisets. It is intended for tests and verification.
func SamePermutation(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[Record]int, len(a))
	for _, r := range a {
		m[r]++
	}
	for _, r := range b {
		m[r]--
		if m[r] < 0 {
			return false
		}
	}
	return true
}

// RegrowCap is the capacity a buffer of capacity old gets when it must
// hold n > old elements: exactly n the first time, n plus 1/8 headroom
// when an existing buffer is outgrown. A caller whose sizes wander just
// above a warm high-water mark (an out-of-core shuffle's near-equal
// partitions, the largest child of a radix pass) then reallocates once
// instead of at every new maximum, while a one-shot call (a fresh
// buffer) allocates no headroom.
func RegrowCap(old, n int) int {
	if old == 0 {
		return n
	}
	return n + n/8
}
