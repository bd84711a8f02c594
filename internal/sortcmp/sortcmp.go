// Package sortcmp implements the comparison sorts the paper measures
// against and uses internally:
//
//   - Introsort: a sequential quicksort/heapsort/insertion-sort hybrid with
//     the same structure as libstdc++'s std::sort, which the paper uses for
//     the local sort of light buckets (Phase 4) and as the sequential "STL
//     sort" baseline.
//   - ParallelQuicksort: a parallel quicksort standing in for the GNU
//     libstdc++ parallel-mode sort (Table 5, Figure 4).
//   - SampleSort: a cache-friendly parallel sample sort after Blelloch,
//     Gibbons and Simhadri (SPAA 2010), the PBBS sample sort baseline.
//   - MergeSort: a parallel mergesort with parallel merge (the practical
//     stand-in for Cole's mergesort from the theory sections).
//
// All sorts order rec.Record by Key ascending.
package sortcmp

import (
	"math/bits"
	"sort"

	"repro/internal/hash"
	"repro/internal/parallel"
	"repro/internal/rec"
)

const (
	// insertionCutoff is the segment size below which every sort here
	// switches to insertion sort (libstdc++ uses 16).
	insertionCutoff = 16
	// parCutoff is the segment size below which recursion stops spawning.
	parCutoff = 1 << 14
)

// ---------------------------------------------------------------------------
// Introsort (sequential std::sort equivalent)

// Introsort sorts a in place by Key ascending. Like std::sort it is a
// median-of-three quicksort that bounds its recursion depth at 2*log2(n),
// falling back to heapsort on pathological inputs and finishing small
// segments with insertion sort. It is not stable.
func Introsort(a []rec.Record) {
	if len(a) <= 1 {
		return
	}
	introLoop(a, 2*bits.Len(uint(len(a))))
}

func introLoop(a []rec.Record, depth int) {
	for len(a) > insertionCutoff {
		if depth == 0 {
			heapSort(a)
			return
		}
		depth--
		p := partition(a)
		// Recurse on the smaller side, loop on the larger (bounded stack).
		if p < len(a)-p-1 {
			introLoop(a[:p], depth)
			a = a[p+1:]
		} else {
			introLoop(a[p+1:], depth)
			a = a[:p]
		}
	}
	insertionSort(a)
}

// partition performs a median-of-three Hoare-style partition and returns
// the final pivot index.
func partition(a []rec.Record) int {
	n := len(a)
	mid := n / 2
	// Order a[0], a[mid], a[n-1]; use a[mid] as pivot moved to a[n-2].
	if a[mid].Key < a[0].Key {
		a[mid], a[0] = a[0], a[mid]
	}
	if a[n-1].Key < a[0].Key {
		a[n-1], a[0] = a[0], a[n-1]
	}
	if a[n-1].Key < a[mid].Key {
		a[n-1], a[mid] = a[mid], a[n-1]
	}
	a[mid], a[n-2] = a[n-2], a[mid]
	pivot := a[n-2].Key
	i, j := 0, n-2
	for {
		for i++; a[i].Key < pivot; i++ {
		}
		for j--; a[j].Key > pivot; j-- {
		}
		if i >= j {
			break
		}
		a[i], a[j] = a[j], a[i]
	}
	a[i], a[n-2] = a[n-2], a[i]
	return i
}

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

func heapSort(a []rec.Record) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(a, i, n)
	}
	for i := n - 1; i > 0; i-- {
		a[0], a[i] = a[i], a[0]
		siftDown(a, 0, i)
	}
}

func siftDown(a []rec.Record, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && a[child+1].Key > a[child].Key {
			child++
		}
		if a[root].Key >= a[child].Key {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

// ---------------------------------------------------------------------------
// Parallel quicksort (GNU parallel-mode std::sort stand-in)

// ParallelQuicksort sorts a in place by Key ascending, recursing on
// partitions in parallel. Not stable.
func ParallelQuicksort(procs int, a []rec.Record) {
	pqsort(parallel.NewLimiter(procs), a, 2*bits.Len(uint(len(a)+1)))
}

// pqsort is the quicksort recursion; a nil lim sorts sequentially.
func pqsort(lim *parallel.Limiter, a []rec.Record, depth int) {
	if len(a) <= parCutoff || !lim.Parallel() {
		Introsort(a)
		return
	}
	if depth == 0 {
		heapSort(a)
		return
	}
	p := partition(a)
	left, right := a[:p], a[p+1:]
	lim.Join(
		func() { pqsort(lim, left, depth-1) },
		func() { pqsort(lim, right, depth-1) },
	)
}

// ---------------------------------------------------------------------------
// Sample sort (PBBS / BGS 2010 stand-in)

// SampleSort sorts a in place by Key ascending. It oversamples to pick
// p-1 splitters, partitions records into p buckets with per-block counting
// (the same blocked-scatter structure as the radix pass, so it is
// cache-friendly), then sorts each bucket in parallel with Introsort.
func SampleSort(procs int, a []rec.Record) {
	n := len(a)
	procs = parallel.Procs(procs)
	if n <= parCutoff || procs == 1 {
		Introsort(a)
		return
	}

	// Bucket count: ~sqrt(n) capped, power of two for cheap indexing.
	nbuckets := 1 << uint(bits.Len(uint(n))/2)
	if nbuckets > 1024 {
		nbuckets = 1024
	}
	if nbuckets < 2 {
		Introsort(a)
		return
	}

	// Oversample and sort the sample sequentially (it is small).
	const oversample = 8
	sampleSize := nbuckets * oversample
	rng := hash.NewRNG(uint64(n))
	sample := make([]uint64, sampleSize)
	for i := range sample {
		sample[i] = a[rng.RandBounded(uint64(i), uint64(n))].Key
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	splitters := make([]uint64, nbuckets-1)
	for i := range splitters {
		splitters[i] = sample[(i+1)*oversample]
	}

	// Blocked classify + scatter into buckets (stable within blocks).
	grain := parallel.Grain(n, procs, 1<<13)
	nblocks := (n + grain - 1) / grain
	counts := make([][]int32, nblocks)
	bucketOf := func(k uint64) int {
		// Binary search in splitters: first index with k < splitters[i].
		lo, hi := 0, len(splitters)
		for lo < hi {
			mid := (lo + hi) / 2
			if k < splitters[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}

	parallel.For(procs, nblocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			c := make([]int32, nbuckets)
			s, e := blk*grain, min((blk+1)*grain, n)
			for i := s; i < e; i++ {
				c[bucketOf(a[i].Key)]++
			}
			counts[blk] = c
		}
	})

	bucketStart := make([]int, nbuckets+1)
	sum := int32(0)
	for b := 0; b < nbuckets; b++ {
		bucketStart[b] = int(sum)
		for blk := 0; blk < nblocks; blk++ {
			v := counts[blk][b]
			counts[blk][b] = sum
			sum += v
		}
	}
	bucketStart[nbuckets] = int(sum)

	scratch := make([]rec.Record, n)
	parallel.For(procs, nblocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			offs := counts[blk]
			s, e := blk*grain, min((blk+1)*grain, n)
			for i := s; i < e; i++ {
				b := bucketOf(a[i].Key)
				scratch[offs[b]] = a[i]
				offs[b]++
			}
		}
	})

	// Sort buckets in parallel and write back.
	parallel.ForEach(procs, nbuckets, 1, func(b int) {
		lo, hi := bucketStart[b], bucketStart[b+1]
		Introsort(scratch[lo:hi])
		copy(a[lo:hi], scratch[lo:hi])
	})
}

// ---------------------------------------------------------------------------
// Parallel mergesort (practical Cole's-mergesort stand-in)

// MergeSort sorts a in place by Key ascending, stably, using parallel
// recursive mergesort with a parallel divide-and-conquer merge.
func MergeSort(procs int, a []rec.Record) {
	n := len(a)
	if n <= 1 {
		return
	}
	scratch := make([]rec.Record, n)
	msortInPlace(parallel.NewLimiter(procs), a, scratch)
}

// msortInPlace sorts a, leaving the result in a; scratch is clobbered. A
// nil lim sorts sequentially.
func msortInPlace(lim *parallel.Limiter, a, scratch []rec.Record) {
	n := len(a)
	if n <= parCutoff || !lim.Parallel() {
		stableSeqSort(a, scratch)
		return
	}
	m := n / 2
	lim.Join(
		func() { msortInto(lim, a[:m], scratch[:m]) },
		func() { msortInto(lim, a[m:], scratch[m:]) },
	)
	mergeInto(lim, scratch[:m], scratch[m:], a)
}

// msortInto sorts a, leaving the result in dst; a is clobbered.
func msortInto(lim *parallel.Limiter, a, dst []rec.Record) {
	n := len(a)
	if n <= parCutoff || !lim.Parallel() {
		stableSeqSort(a, dst)
		copy(dst, a)
		return
	}
	m := n / 2
	lim.Join(
		func() { msortInPlace(lim, a[:m], dst[:m]) },
		func() { msortInPlace(lim, a[m:], dst[m:]) },
	)
	mergeInto(lim, a[:m], a[m:], dst)
}

// stableSeqSort is the sequential base case: a bottom-up stable mergesort
// using scratch. Result in a.
func stableSeqSort(a, scratch []rec.Record) {
	n := len(a)
	for lo := 0; lo < n; lo += insertionCutoff {
		insertionSort(a[lo:min(lo+insertionCutoff, n)])
	}
	for width := insertionCutoff; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			if mid < hi {
				seqMerge(a[lo:mid], a[mid:hi], scratch[lo:hi])
				copy(a[lo:hi], scratch[lo:hi])
			}
		}
	}
}

// seqMerge stably merges sorted x and y into out (len(out) == len(x)+len(y)).
func seqMerge(x, y, out []rec.Record) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if y[j].Key < x[i].Key {
			out[k] = y[j]
			j++
		} else {
			out[k] = x[i]
			i++
		}
		k++
	}
	copy(out[k:], x[i:])
	copy(out[k+len(x)-i:], y[j:])
}

// mergeInto stably merges sorted x and y into out in parallel: the larger
// side is split at its median, the smaller side is split by binary search,
// and the two halves merge independently.
func mergeInto(lim *parallel.Limiter, x, y, out []rec.Record) {
	if len(x)+len(y) <= parCutoff || !lim.Parallel() {
		seqMerge(x, y, out)
		return
	}
	if len(x) < len(y) {
		// Keep x the larger side; the merge is stable as long as ties
		// between x and y always take x first, which seqMerge and the
		// split rule below both honor.
		mx := len(y) / 2
		pivot := y[mx].Key
		// First index in x with key > pivot: x-elements equal to pivot
		// must go before y[mx].
		sx := sort.Search(len(x), func(i int) bool { return x[i].Key > pivot })
		lim.Join(
			func() { mergeInto(lim, x[:sx], y[:mx+1], out[:sx+mx+1]) },
			func() { mergeInto(lim, x[sx:], y[mx+1:], out[sx+mx+1:]) },
		)
		return
	}
	mx := len(x) / 2
	pivot := x[mx].Key
	// First index in y with key >= pivot: y-elements equal to pivot come
	// after all equal x-elements, in particular after x[mx].
	sy := sort.Search(len(y), func(i int) bool { return y[i].Key >= pivot })
	lim.Join(
		func() { mergeInto(lim, x[:mx], y[:sy], out[:mx+sy]) },
		func() { mergeInto(lim, x[mx:], y[sy:], out[mx+sy:]) },
	)
}
