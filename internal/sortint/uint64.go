package sortint

import (
	"repro/internal/parallel"
)

// SortUint64 sorts keys in place using the same parallel top-down MSD
// radix structure as RadixSort, specialized to bare 64-bit keys (half the
// memory traffic of Record sorting). The semisort uses it for its sample,
// which consists of keys only.
func SortUint64(procs int, keys []uint64) {
	if len(keys) <= 1 {
		return
	}
	scratch := make([]uint64, len(keys))
	SortUint64With(procs, keys, scratch)
}

// SortUint64With is SortUint64 with a caller-provided scratch buffer of at
// least len(keys).
func SortUint64With(procs int, keys, scratch []uint64) {
	if len(keys) <= 1 {
		return
	}
	if len(scratch) < len(keys) {
		panic("sortint: scratch buffer too small")
	}
	procs = parallel.Procs(procs)
	if procs == 1 {
		// Closure-free serial recursion: the generic path builds a body
		// closure per recursion node (it can escape into the limiter's
		// deferred-work list), which costs an allocation even when the
		// limiter is nil. The serial variants inline the bucket loop so a
		// single-worker sort allocates nothing.
		u64SortSerial(keys, scratch[:len(keys)], 64-radixBits)
		return
	}
	u64SortInPlace(procs, keys, scratch[:len(keys)], 64-radixBits)
}

// u64SortSerial is u64SortInPlace specialized to one worker with the
// recursion inlined (no body closures, no limiter).
func u64SortSerial(a, scratch []uint64, shift int) {
	n := len(a)
	if n <= smallCutoff {
		u64InsertionSort(a)
		return
	}
	if shift < 0 {
		return
	}
	starts := u64RadixPass(1, a, scratch, shift)
	for b := 0; b < radixBuckets; b++ {
		lo, hi := starts[b], starts[b+1]
		switch {
		case hi-lo == 1:
			a[lo] = scratch[lo]
		case hi-lo > 1:
			u64SortSerialInto(scratch[lo:hi], a[lo:hi], shift-radixBits)
		}
	}
}

// u64SortSerialInto is u64SortInto specialized to one worker.
func u64SortSerialInto(src, dst []uint64, shift int) {
	n := len(src)
	if n <= smallCutoff {
		copy(dst, src)
		u64InsertionSort(dst)
		return
	}
	if shift < 0 {
		copy(dst, src)
		return
	}
	starts := u64RadixPass(1, src, dst, shift)
	for b := 0; b < radixBuckets; b++ {
		lo, hi := starts[b], starts[b+1]
		if hi-lo > 0 {
			u64SortSerial(dst[lo:hi], src[lo:hi], shift-radixBits)
		}
	}
}

// u64SortInPlace is the recursion of parallel sorts. Nodes below
// seqCutoff take the closure-free serial recursion, so a parallel sort
// allocates only at its few large nodes.
func u64SortInPlace(procs int, a, scratch []uint64, shift int) {
	if len(a) < seqCutoff {
		u64SortSerial(a, scratch, shift)
		return
	}
	if shift < 0 {
		return
	}
	starts := u64RadixPass(procs, a, scratch, shift)
	u64RecurseBuckets(procs, starts, func(lo, hi int) {
		u64SortInto(procs, scratch[lo:hi], a[lo:hi], shift-radixBits)
	})
}

func u64SortInto(procs int, src, dst []uint64, shift int) {
	if len(src) < seqCutoff {
		u64SortSerialInto(src, dst, shift)
		return
	}
	if shift < 0 {
		copy(dst, src)
		return
	}
	starts := u64RadixPass(procs, src, dst, shift)
	u64RecurseBuckets(procs, starts, func(lo, hi int) {
		u64SortInPlace(procs, dst[lo:hi], src[lo:hi], shift-radixBits)
	})
}

// u64RecurseBuckets invokes body on every non-empty bucket of a parallel
// node: parallel.For hands out bucket ranges for the buckets below
// seqCutoff (serial subtrees), then the larger buckets recurse one at a
// time, each with parallel passes of its own.
func u64RecurseBuckets(procs int, starts [radixBuckets + 1]int, body func(lo, hi int)) {
	parallel.For(procs, radixBuckets, parallel.Grain(radixBuckets, procs, 1), func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			if lo, hi := starts[b], starts[b+1]; hi > lo && hi-lo < seqCutoff {
				body(lo, hi)
			}
		}
	})
	for b := 0; b < radixBuckets; b++ {
		if lo, hi := starts[b], starts[b+1]; hi-lo >= seqCutoff {
			body(lo, hi)
		}
	}
}

func u64RadixPass(procs int, src, dst []uint64, shift int) [radixBuckets + 1]int {
	n := len(src)
	var starts [radixBuckets + 1]int
	if procs == 1 || n < seqCutoff {
		// No byteOf closure here: sharing one closure with the parallel
		// branch forces it to the heap (the parallel.For bodies escape), and
		// this pass runs once per recursion node — serial sorts would pay an
		// allocation per node for a closure they never needed.
		var counts [radixBuckets]int
		for i := 0; i < n; i++ {
			counts[int(src[i]>>uint(shift))&(radixBuckets-1)]++
		}
		sum := 0
		var offs [radixBuckets]int
		for b := 0; b < radixBuckets; b++ {
			starts[b] = sum
			offs[b] = sum
			sum += counts[b]
		}
		starts[radixBuckets] = sum
		for i := 0; i < n; i++ {
			b := int(src[i]>>uint(shift)) & (radixBuckets - 1)
			dst[offs[b]] = src[i]
			offs[b]++
		}
		return starts
	}
	byteOf := func(k uint64) int { return int(k>>uint(shift)) & (radixBuckets - 1) }

	grain := parallel.Grain(n, procs, 1<<13)
	nblocks := (n + grain - 1) / grain
	counts := make([][radixBuckets]int32, nblocks)
	parallel.For(procs, nblocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			s, e := blk*grain, min((blk+1)*grain, n)
			c := &counts[blk]
			for i := s; i < e; i++ {
				c[byteOf(src[i])]++
			}
		}
	})
	sum := 0
	offsets := make([][radixBuckets]int32, nblocks)
	for b := 0; b < radixBuckets; b++ {
		starts[b] = sum
		for blk := 0; blk < nblocks; blk++ {
			offsets[blk][b] = int32(sum)
			sum += int(counts[blk][b])
		}
	}
	starts[radixBuckets] = sum
	parallel.For(procs, nblocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			s, e := blk*grain, min((blk+1)*grain, n)
			offs := offsets[blk]
			for i := s; i < e; i++ {
				b := byteOf(src[i])
				dst[offs[b]] = src[i]
				offs[b]++
			}
		}
	})
	return starts
}

func u64InsertionSort(a []uint64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
