package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond the tail percentile for
// it to count as measured rather than as the sample's largest values.
const minBeyond = 10

// tailCap is the highest percentile the tail reports: with enough samples
// the tail is p99 rather than ever rarer events.
const tailCap = 99

// rankIndex is the 0-based nearest-rank index of the p-th percentile in a
// sorted sample of n values.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100)) - 1
	return min(max(i, 0), n-1)
}

// tailIndex is the 0-based index, in a sorted sample of n, of the highest
// percentile (at most tailCap) with at least minBeyond samples beyond it.
// The rule moves smoothly with n, so runs whose sample counts differ a
// little report nearly the same percentile. Below minBeyond+1 samples no
// percentile qualifies and the maximum stands in.
func tailIndex(n int) int {
	if n <= minBeyond {
		return n - 1
	}
	return min(rankIndex(n, tailCap), n-1-minBeyond)
}

// tailPercentile names the percentile tailIndex picks for n samples.
func tailPercentile(n int) float64 {
	if n == 0 {
		return 0
	}
	return 100 * float64(tailIndex(n)+1) / float64(n)
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), p)]
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sample is one timed operation: its latency, the memmove floor timed
// right after it for the same bytes, and the records it completed.
type sample struct {
	op, floor time.Duration
	recs      int
}

// summary is the normalized view of one run's samples.
type summary struct {
	N int
	// P50X and TailX are the median and tail of op ÷ floor, taken per op
	// so that host drift common to an op and its floor cancels.
	P50X, TailX float64
	// TailPct is the percentile TailX reports (see tailIndex).
	TailPct float64
	// ThroughputX is records per second of op time divided by records per
	// second of floor time, i.e. Σfloor ÷ Σop.
	ThroughputX float64
	// Raw, un-normalized figures; they drift with the host.
	P50Ms, TailMs, MRecPerS float64
}

// summarize reduces samples to the normalized metrics.
func summarize(ss []sample) summary {
	s := summary{N: len(ss)}
	if len(ss) == 0 {
		return s
	}
	ratios := make([]float64, len(ss))
	ms := make([]float64, len(ss))
	var opSum, floorSum time.Duration
	recs := 0
	for i, x := range ss {
		ratios[i] = normalize(x.op, x.floor)
		ms[i] = float64(x.op) / float64(time.Millisecond)
		opSum += x.op
		floorSum += x.floor
		recs += x.recs
	}
	s.P50X, s.P50Ms = median(ratios), median(ms)
	slices.Sort(ratios)
	slices.Sort(ms)
	t := tailIndex(len(ss))
	s.TailPct, s.TailX, s.TailMs = tailPercentile(len(ss)), ratios[t], ms[t]
	s.ThroughputX = throughputX(opSum, floorSum)
	s.MRecPerS = float64(recs) / opSum.Seconds() / 1e6
	return s
}

// normalize expresses an op's latency in copies of its own input: op ÷
// the time memmove took for the same bytes.
func normalize(op, floor time.Duration) float64 {
	return float64(op) / float64(max(floor, 1))
}

// throughputX is (records/Σop) ÷ (records/Σfloor): the share of memmove
// throughput the operations reached on the same records.
func throughputX(opSum, floorSum time.Duration) float64 {
	return float64(floorSum) / float64(max(opSum, 1))
}
