// The sizeModel is the estimator contract between the sampling phase and
// every downstream consumer of sample-derived size information: light
// bucket merging (buckets.go), the probing scatter's f(s) slot sizes
// (scatter_probing.go, the only sizing consumer) and heavy/light
// classification thresholds (classify.go). Before this contract,
// those call sites each assumed the one uniform sample rate; the adaptive
// sampling loop (sample.go) produces per-hash-range densities, and the
// model is the single place that turns a (sample count, hash range) pair
// into a record estimate or a slot size.
//
// Two modes:
//
//   - uniform: every range was sampled at 1/SampleRate. The model
//     delegates to the original sizeEstimate formula byte-for-byte,
//     so one-shot runs (and the OneShotSampling ablation) produce
//     exactly the historical sizes.
//   - per-range: ranges carry individual densities from the adaptive
//     loop. Sizes come from the generalized bound below, which reduces
//     algebraically to the paper's f(s)·rate when all rates are equal.
//
// Generalized bound. The paper's Phase 2 sizes a bucket with s sample
// hits at rate R as f(s)·R = s·R + cln·R + sqrt((cln·R)² + 2·s·R·cln·R)
// with cln = c·ln n (Section 3.1). Writing mean = s·R for the estimated
// record mass, the bound is mean + cln·R + sqrt((cln·R)² + 2·mean·cln·R)
// — a function of the estimated mass and the records-per-sample rate
// alone. A merged bucket spanning ranges with different rates sums the
// per-range masses and takes the worst (largest) merged rate, which upper
// bounds each constituent's deviation term; with equal rates this is
// exactly the one-shot bound.
package core

import (
	"math"
	"math/bits"
)

// sizeModel is one attempt's estimator state, built by the sampling phase
// (plan.buildModel) after the adaptive loop terminates. The per-range
// slices are views into Workspace buffers; plan.clearRefs drops them.
type sizeModel struct {
	logn  float64
	c     float64
	cln   float64 // c·ln n
	rate  int     // configured 1/p (the uniform and budget-defining rate)
	delta int
	// deltaRecs is the heavy threshold in estimated records:
	// Delta·SampleRate, which a uniform sample meets at exactly Delta
	// occurrences.
	deltaRecs float64
	uniform   bool
	// Per-range state (nil when uniform): records-per-sample rate and
	// heavy-run threshold per hash range.
	rates []float64
	thr   []int32
}

// heavyThr returns the heavy-classification threshold for a sample run in
// hash range j, in sample occurrences at that range's density.
func (m *sizeModel) heavyThr(j uint64) int32 {
	if m.uniform {
		return int32(m.delta)
	}
	return m.thr[j]
}

// rateOf returns range j's records-per-sample rate.
func (m *sizeModel) rateOf(j uint64) float64 {
	if m.uniform {
		return float64(m.rate)
	}
	return m.rates[j]
}

// mass estimates the records represented by count sample hits in range j.
func (m *sizeModel) mass(count int32, j uint64) float64 {
	return float64(count) * m.rateOf(j)
}

// heavySize sizes a heavy bucket from its sample-run count and the hash
// range holding the key, at the probing scatter's slack and rounding
// (Config.Slack, Config.ExactBucketSizes).
func (m *sizeModel) heavySize(count int, j uint64, slack float64, exact bool) int {
	if m.uniform {
		return sizeEstimate(count, m.logn, m.c, slack, m.rate, exact)
	}
	r := m.rates[j]
	return finishSize(slack*sizeBound(float64(count)*r, r, m.cln), exact)
}

// lightSize sizes a merged light bucket from its total sample count, its
// summed per-range mass estimate, and the largest rate merged in.
func (m *sizeModel) lightSize(samples int, mass, rmax, slack float64, exact bool) int {
	if m.uniform {
		return sizeEstimate(samples, m.logn, m.c, slack, m.rate, exact)
	}
	return finishSize(slack*sizeBound(mass, rmax, m.cln), exact)
}

// merged reports whether a light bucket accumulated enough estimated mass
// to close (the Delta·SampleRate-records merge target; exactly the old
// Delta-samples rule under a uniform sample).
func (m *sizeModel) merged(samples int32, mass float64) bool {
	if m.uniform {
		return int(samples) >= m.delta
	}
	return mass >= m.deltaRecs-1e-9
}

// sizeBound is the generalized f(s)·rate: a high-probability record-count
// bound for a bucket with estimated mass mean sampled at worst rate rmax.
func sizeBound(mean, rmax, cln float64) float64 {
	b := cln * rmax
	return mean + b + math.Sqrt(b*b+2*mean*b)
}

// finishSize applies the sizing epilogue shared by both model modes:
// ceiling, the minimum bucket size, and the power-of-two round-up unless
// exact sizing is on.
func finishSize(f float64, exact bool) int {
	size := int(math.Ceil(f))
	if size < 4 {
		size = 4
	}
	if exact {
		return size
	}
	return 1 << uint(bits.Len(uint(size-1)))
}

// sizeEstimate is the paper's f(s) multiplied by slack and, unless exact
// sizing is requested, rounded up to a power of two (Section 4, Phase 2):
// the high-probability bound on the record count of a bucket with s sample
// hits. Exact sizing trades the cheap power-of-two masking for ~1.4x less
// slot memory (measured in the ablation benches). Kept as a standalone
// function: it is the sizeModel's uniform-mode delegate, so one-shot runs
// size buckets bit-for-bit as they always did.
func sizeEstimate(s int, logn float64, c, slack float64, rate int, exact bool) int {
	cln := c * logn
	f := (float64(s) + cln + math.Sqrt(cln*cln+2*float64(s)*cln)) * float64(rate)
	size := int(math.Ceil(slack * f))
	if size < 4 {
		size = 4
	}
	if exact {
		return size
	}
	return 1 << uint(bits.Len(uint(size-1)))
}
