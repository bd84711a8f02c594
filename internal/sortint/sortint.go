// Package sortint implements integer sorting on 64-bit keys:
//
//   - RadixSort: a parallel top-down (MSD) radix sort processing 8 bits per
//     pass, the same design as the PBBS radix sort the paper both builds on
//     (to sort the sample) and compares against (as its main baseline).
//     Each pass computes per-block histograms in parallel, prefix-sums them
//     into per-block scatter offsets, scatters, and recurses on the 256
//     buckets in parallel.
//   - CountingSort / ParallelCountingSort: the stable counting sort from
//     Rajasekaran and Reif's integer sorting algorithm, used by the
//     semisort's counting-sort-based local sort and by tests.
//   - DovetailTables.Semisort / DovetailSemisortWith (dovetail.go): the
//     dovetail semisort, an MSD radix recursion with size-adaptive digits
//     that pulls each node's heavy keys out of its distribution pass; the
//     default route's Phase 4 kernel.
//
// All sorts order rec.Record values by Key ascending and treat Value as an
// opaque payload.
package sortint

import (
	"errors"
	"fmt"

	"repro/internal/parallel"
	"repro/internal/rec"
)

// ErrShortScratch reports a caller-provided scratch buffer smaller than the
// input; sized errors from this package wrap it.
var ErrShortScratch = errors.New("sortint: scratch buffer too small")

// ErrScratchCap reports a SemisortFrom call whose child scratch would
// exceed the caller's byte cap; the input is untouched.
var ErrScratchCap = errors.New("sortint: child scratch over cap")

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	// Segments at or below this size use insertion sort on the full key.
	smallCutoff = 32
	// Segments below this size are radix-sorted sequentially rather than
	// with parallel passes.
	seqCutoff = 1 << 15
)

// RadixSort sorts a in place by Key ascending using a parallel MSD radix
// sort over the full 64 bits. It allocates one scratch buffer of len(a).
func RadixSort(procs int, a []rec.Record) {
	if len(a) <= 1 {
		return
	}
	scratch := make([]rec.Record, len(a))
	_ = RadixSortWith(procs, a, scratch) // scratch is sized; cannot fail
}

// RadixSortWith is RadixSort with a caller-provided scratch buffer of at
// least len(a) records, enabling buffer reuse across calls. A scratch
// buffer shorter than a is a contract error reported as a sized error
// wrapping ErrShortScratch; a is left untouched in that case.
func RadixSortWith(procs int, a, scratch []rec.Record) error {
	if len(a) <= 1 {
		return nil
	}
	if len(scratch) < len(a) {
		return fmt.Errorf("%w: have %d records, need %d", ErrShortScratch, len(scratch), len(a))
	}
	procs = parallel.Procs(procs)
	lim := parallel.NewLimiter(procs)
	sortInPlace(procs, lim, a, scratch[:len(a)], 64-radixBits)
	return nil
}

// sortInPlace sorts a by the bytes at shift, shift-8, ...; the result ends
// in a. scratch is clobbered.
func sortInPlace(procs int, lim *parallel.Limiter, a, scratch []rec.Record, shift int) {
	n := len(a)
	if n <= smallCutoff {
		insertionSort(a)
		return
	}
	if shift < 0 {
		return // all 64 bits consumed: keys in this segment are equal
	}
	starts := radixPass(procs, a, scratch, shift)
	// Recurse bucket by bucket; each recursion moves the data back into a.
	// Size-1 buckets have no recursion to move them, so copy explicitly.
	recurseBuckets(procs, lim, starts, func(lo, hi int) {
		if hi-lo == 1 {
			a[lo] = scratch[lo]
			return
		}
		sortInto(procs, lim, scratch[lo:hi], a[lo:hi], shift-radixBits)
	})
}

// sortInto sorts src by the bytes at shift, shift-8, ...; the result ends
// in dst. src is clobbered. len(src) == len(dst).
func sortInto(procs int, lim *parallel.Limiter, src, dst []rec.Record, shift int) {
	n := len(src)
	if n <= smallCutoff {
		copy(dst, src)
		insertionSort(dst)
		return
	}
	if shift < 0 {
		copy(dst, src)
		return
	}
	starts := radixPass(procs, src, dst, shift)
	recurseBuckets(procs, lim, starts, func(lo, hi int) {
		sortInPlace(procs, lim, dst[lo:hi], src[lo:hi], shift-radixBits)
	})
}

// recurseBuckets invokes body on every non-empty bucket range, in parallel
// for large inputs. Size-1 buckets are handled inline (they are cheap).
func recurseBuckets(procs int, lim *parallel.Limiter, starts [radixBuckets + 1]int, body func(lo, hi int)) {
	n := starts[radixBuckets]
	if !lim.Parallel() || n < seqCutoff {
		for b := 0; b < radixBuckets; b++ {
			if starts[b+1] > starts[b] {
				body(starts[b], starts[b+1])
			}
		}
		return
	}
	var fns []func()
	for b := 0; b < radixBuckets; b++ {
		lo, hi := starts[b], starts[b+1]
		switch {
		case hi-lo == 1:
			body(lo, hi)
		case hi-lo > 1:
			fns = append(fns, func() { body(lo, hi) })
		}
	}
	lim.JoinAll(fns...)
}

// radixPass distributes src into dst by the byte at shift, returning the
// bucket boundary array (starts[b] .. starts[b+1] is bucket b in dst). The
// pass is stable. For large inputs the histogram and scatter are
// parallelized over blocks with per-block offset tables.
func radixPass(procs int, src, dst []rec.Record, shift int) [radixBuckets + 1]int {
	n := len(src)
	byteOf := func(k uint64) int { return int(k>>uint(shift)) & (radixBuckets - 1) }

	var starts [radixBuckets + 1]int
	if procs == 1 || n < seqCutoff {
		var counts [radixBuckets]int
		for i := 0; i < n; i++ {
			counts[byteOf(src[i].Key)]++
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
			b := byteOf(src[i].Key)
			dst[offs[b]] = src[i]
			offs[b]++
		}
		return starts
	}

	grain := parallel.Grain(n, procs, 1<<13)
	nblocks := (n + grain - 1) / grain
	counts := make([][radixBuckets]int32, nblocks)

	parallel.For(procs, nblocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			s, e := blk*grain, min((blk+1)*grain, n)
			c := &counts[blk]
			for i := s; i < e; i++ {
				c[byteOf(src[i].Key)]++
			}
		}
	})

	// Column-major exclusive scan: for each bucket, blocks in order, so the
	// scatter below is stable.
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
				b := byteOf(src[i].Key)
				dst[offs[b]] = src[i]
				offs[b]++
			}
		}
	})
	return starts
}

// insertionSort sorts a tiny segment by full key; it is the base case of
// the radix recursion and is stable.
func insertionSort(a []rec.Record) {
	for i := 1; i < len(a); i++ {
		r := a[i]
		j := i - 1
		for j >= 0 && a[j].Key > r.Key {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = r
	}
}

// CountingSort stably sorts a by bucket(r), which must return values in
// [0, m), using the provided scratch buffer (len >= len(a)). This is the
// sequential stable counting sort from Rajasekaran–Reif, as used on
// polylogarithmic-size blocks.
func CountingSort(a, scratch []rec.Record, m int, bucket func(rec.Record) int) {
	n := len(a)
	if n <= 1 {
		return
	}
	if len(scratch) < n {
		panic("sortint: scratch buffer too small")
	}
	counts := make([]int32, m+1)
	for i := 0; i < n; i++ {
		counts[bucket(a[i])+1]++
	}
	for b := 0; b < m; b++ {
		counts[b+1] += counts[b]
	}
	for i := 0; i < n; i++ {
		b := bucket(a[i])
		scratch[counts[b]] = a[i]
		counts[b]++
	}
	copy(a, scratch[:n])
}

// ParallelCountingSort stably sorts a by bucket(r) in [0, m) using the
// three-phase blocked algorithm from the paper's Section 2: per-block
// counts, a prefix sum over (bucket, block) pairs, and a per-block stable
// scatter. scratch must have len >= len(a). The result is in a.
func ParallelCountingSort(procs int, a, scratch []rec.Record, m int, bucket func(rec.Record) int) {
	n := len(a)
	if n <= 1 {
		return
	}
	if len(scratch) < n {
		panic("sortint: scratch buffer too small")
	}
	procs = parallel.Procs(procs)
	if procs == 1 || n < seqCutoff {
		CountingSort(a, scratch, m, bucket)
		return
	}
	grain := parallel.Grain(n, procs, 1<<12)
	nblocks := (n + grain - 1) / grain
	counts := make([][]int32, nblocks)

	parallel.For(procs, nblocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			c := make([]int32, m)
			s, e := blk*grain, min((blk+1)*grain, n)
			for i := s; i < e; i++ {
				c[bucket(a[i])]++
			}
			counts[blk] = c
		}
	})

	sum := int32(0)
	for b := 0; b < m; b++ {
		for blk := 0; blk < nblocks; blk++ {
			v := counts[blk][b]
			counts[blk][b] = sum
			sum += v
		}
	}

	parallel.For(procs, nblocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			offs := counts[blk]
			s, e := blk*grain, min((blk+1)*grain, n)
			for i := s; i < e; i++ {
				b := bucket(a[i])
				scratch[offs[b]] = a[i]
				offs[b]++
			}
		}
	})
	parallel.For(procs, n, 1<<14, func(lo, hi int) {
		copy(a[lo:hi], scratch[lo:hi])
	})
}
