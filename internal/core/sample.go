// Phase 1 — sampling and sorting (paper Section 4, Phase 1), refactored
// from the paper's one-shot stratified sample into an adaptive estimator
// loop ("Histogram Sort with Sampling", arXiv 1803.01237):
//
//  1. a tiny pilot round keeps one key per SamplePilotFactor×SampleRate
//     records across every hash range;
//  2. the per-range histogram of the kept keys yields confidence bounds:
//     a range with s kept samples has f(s) relative overshoot
//     (cln + sqrt(cln² + 2·s·cln))/s, a function of s alone — so a
//     range is converged exactly when its cumulative kept count reaches
//     s* = 2·cln·(1+tol)/tol²;
//  3. top-up rounds re-scan the input at halving block sizes but keep
//     keys only from the low-confidence ranges, until every range is
//     within tolerance, the round cap hits, or the one-shot sample
//     budget (n/SampleRate total kept keys) is spent.
//
// The cumulative sample is then sorted once and handed to Phase 2
// together with the sizeModel (estimator.go) carrying each range's
// resulting density.
//
// Only the sampled routes (probing and counting) run this phase, and
// only the probing scatter sizes slots from those densities. The dovetail
// route, the planner's pick for a plain semisort, draws no sample.
//
// Determinism: the draw for block b of round r is keyed by the mixed
// index (r<<42 | b) of the attempt's sampling RNG, the per-round range
// selection is a serial function of the per-range histogram (itself a
// sum, so independent of chunk grain), and kept keys land in
// block-ascending order via a count/scan/fill pair — so the sample is
// byte-identical across proc counts, and boosted retries (which keep
// sampleAttempt) redraw it identically.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/sortint"
)

// minPilotBlocks gates the adaptive loop: a pilot that would keep fewer
// samples than this can't estimate per-range confidence, so the phase
// degrades to the one-shot density (single round at 1/SampleRate over
// every range — the historical sample, drawn bit-for-bit identically).
const minPilotBlocks = 64

// samplePhase runs the adaptive sampling loop and sorts the cumulative
// sample. An injected fault.SampleRound (or a context cancellation at a
// round boundary) aborts the attempt cooperatively.
func (pl *plan) samplePhase() error {
	if err := phaseGate(pl.ctx, "sampling"); err != nil {
		return err
	}
	pl.tr.phaseStart(pl.attempt, obsv.PhaseSample)
	t0 := time.Now()
	pl.computeRanges()
	if err := pl.tr.labeledPhase(pl, "sample", (*plan).sampleBody); err != nil {
		pl.tr.span(pl.attempt, obsv.PhaseSample, t0, obsv.OutcomeCanceled)
		return fmt.Errorf("semisort: canceled at sampling: %w", err)
	}
	pl.stats.SampleSize = pl.ns
	pl.stats.SampleRounds = pl.smplRounds
	pl.stats.Phases.SampleSort = time.Since(t0)
	pl.tr.span(pl.attempt, obsv.PhaseSample, t0, obsv.OutcomeOK)
	return nil
}

// computeRanges fixes the attempt's hash-range geometry (numLight ranges
// selected by a key's top bits). Historically computed at classification;
// the adaptive loop needs it before the pilot because the per-range
// histogram and the round selections are indexed by range.
//
// Effective light bucket count: ~n/1024 hash-range slices, matching the
// paper's records-per-bucket ratio (2^16 buckets for n=10^8 is ~1500
// records each); we adapt for smaller n instead of fixing 2^16.
func (pl *plan) computeRanges() {
	numLight := 1
	if pl.n > 1024 {
		numLight = 1 << uint(bits.Len(uint(pl.n/1024-1)))
	}
	if numLight > pl.cfg.MaxLightBuckets {
		numLight = pl.cfg.MaxLightBuckets
	}
	pl.numLight = numLight
	pl.shift = uint(64 - bits.Len(uint(numLight-1)))
	if numLight == 1 {
		pl.shift = 64
	}
}

// sampleBody is the adaptive loop proper.
func (pl *plan) sampleBody() error {
	c := &pl.cfg
	pilot := c.SampleRate * c.SamplePilotFactor
	oneShot := c.OneShotSampling || pl.n/pilot < minPilotBlocks
	maxRounds := c.SampleMaxRounds
	if oneShot {
		pilot = c.SampleRate
		maxRounds = 1
	}

	nl := pl.numLight
	pl.smplHist = growClear(&pl.ws.smplHist, nl)
	pl.smplDens = growClear(&pl.ws.smplDens, nl)
	sel := grow(&pl.ws.smplSel, nl)
	for i := range sel {
		sel[i] = 1 // the pilot draws from every range
	}
	pl.smplSel = sel
	pl.smplSelCount = nl
	pl.ns = 0
	pl.sample = pl.ws.sample[:0]
	pl.smplRounds = 0

	budget := pl.n / c.SampleRate
	bs := pilot
	for round := 0; ; round++ {
		// Round-boundary gates: the fault injector's hook for aborting
		// mid-loop, then a direct context check (phaseGate would count a
		// fault.PhaseBoundary occurrence per round, breaking that point's
		// five-per-attempt contract).
		if fault.Should(fault.SampleRound) {
			return fmt.Errorf("sample round %d: %w", round, fault.ErrInjected)
		}
		if pl.ctx != nil {
			if err := pl.ctx.Err(); err != nil {
				return err
			}
		}
		if err := pl.sampleRound(round, bs); err != nil {
			return err
		}
		if pl.ns > budget {
			// Draw jitter pushed the cumulative sample past the one-shot
			// budget; clip the block-ordered tail of this round so the
			// "never larger than one-shot" contract stays exact. The
			// density margin in selectRanges makes this a rare few-key
			// trim, so the histogram's slight overcount is harmless.
			pl.ns = budget
			pl.sample = pl.sample[:budget]
		}
		pl.smplRounds = round + 1
		if pl.smplRounds >= maxRounds {
			break
		}
		next, ok := pl.selectRanges(pilot, budget, maxRounds-pl.smplRounds)
		if !ok {
			break
		}
		bs = next
	}

	// One sort over the cumulative sample, against the workspace's sort
	// scratch; Phase 2 never sees round structure.
	if pl.ns > 0 {
		scratch := grow(&pl.ws.sampleScratch, pl.ns)
		sortint.SortUint64With(pl.procs, pl.sample, scratch)
	}
	pl.buildModel(oneShot)
	return nil
}

// sampleRound draws one round: every complete bs-record block contributes
// one fixed-seed key choice, kept iff its hash range is selected this
// round. Kept keys append to the cumulative sample in block order via a
// count/scan/fill pass pair, and the per-range histogram and densities
// are folded in.
func (pl *plan) sampleRound(round, bs int) error {
	nblk := pl.n / bs
	if nblk == 0 {
		return nil // nothing to draw (one-shot with SampleRate > n)
	}
	var t0 time.Time
	if pl.tr.obs != nil {
		t0 = time.Now()
	}
	pl.tr.phaseStart(pl.attempt, obsv.PhaseSampleRound)
	pl.smplRound = round
	pl.smplBS = bs
	pl.smplNBlk = nblk
	grain := parallel.Grain(nblk, pl.procs, 2048)
	pl.smplGrain = grain
	nchunks := (nblk + grain - 1) / grain
	pl.smplCnt = grow(&pl.ws.smplCnt, nchunks)
	if pl.smplSelCount == pl.numLight {
		// Every range is selected (always so for the pilot), so every
		// block keeps its draw: the counts need no key reads.
		for ci := range pl.smplCnt {
			pl.smplCnt[ci] = int32(min(grain, nblk-ci*grain))
		}
	} else if err := pl.parFor(nchunks, 1, (*plan).sampleCountChunk); err != nil {
		pl.tr.roundSpan(pl.attempt, t0, obsv.OutcomeCanceled, int64(pl.smplSelCount))
		return err
	}
	// Exclusive scan: per-chunk kept counts become write offsets after
	// the keys kept by earlier rounds.
	total := pl.ns
	for i := 0; i < nchunks; i++ {
		cnt := pl.smplCnt[i]
		pl.smplCnt[i] = int32(total)
		total += int(cnt)
	}
	pl.sample = growKeep(&pl.ws.sample, total)
	if err := pl.parFor(nchunks, 1, (*plan).sampleFillChunk); err != nil {
		pl.tr.roundSpan(pl.attempt, t0, obsv.OutcomeCanceled, int64(pl.smplSelCount))
		return err
	}
	d := 1.0 / float64(bs)
	for j, s := range pl.smplSel {
		if s != 0 {
			pl.smplDens[j] += d
		}
	}
	pl.ns = total
	pl.tr.roundSpan(pl.attempt, t0, obsv.OutcomeOK, int64(pl.smplSelCount))
	return nil
}

// sampleCountChunk counts the keys a chunk of blocks would keep. The
// draw for block b is keyed by (round<<42 | b), so every round's choices
// are fixed for the attempt and boosted retries resample identically; a
// one-shot round 0 reproduces the historical per-block draws exactly.
func (pl *plan) sampleCountChunk(clo, chi int) {
	bs := pl.smplBS
	tag := uint64(pl.smplRound) << 42
	shift := pl.shift
	for ci := clo; ci < chi; ci++ {
		blo, bhi := ci*pl.smplGrain, min((ci+1)*pl.smplGrain, pl.smplNBlk)
		var kept int32
		for b := blo; b < bhi; b++ {
			j := b*bs + int(pl.rng.RandBounded(tag|uint64(b), uint64(bs)))
			if pl.smplSel[pl.a[j].Key>>shift] != 0 {
				kept++
			}
		}
		pl.smplCnt[ci] = kept
	}
}

// sampleFillChunk redraws the same choices and writes the kept keys at
// the chunk's scanned offset, accumulating the per-range histogram
// (atomic adds of a fixed multiset — deterministic sums).
func (pl *plan) sampleFillChunk(clo, chi int) {
	bs := pl.smplBS
	tag := uint64(pl.smplRound) << 42
	shift := pl.shift
	for ci := clo; ci < chi; ci++ {
		blo, bhi := ci*pl.smplGrain, min((ci+1)*pl.smplGrain, pl.smplNBlk)
		off := int(pl.smplCnt[ci])
		for b := blo; b < bhi; b++ {
			j := b*bs + int(pl.rng.RandBounded(tag|uint64(b), uint64(bs)))
			k := pl.a[j].Key
			r := k >> shift
			if pl.smplSel[r] != 0 {
				pl.sample[off] = k
				off++
				atomic.AddInt32(&pl.smplHist[r], 1)
			}
		}
	}
}

// selectRanges decides the next round's ranges and block size, and
// reports whether a round is worth running. Serial and deterministic.
//
// Flagging: a range gets a top-up while its kept count is below the
// convergence target s* — f(s)'s relative overshoot
// (cln + sqrt(cln² + 2·s·cln))/s depends only on the kept count s, so
// inverting overshoot ≤ tol gives s* = 2·cln·(1+tol)/tol². Empty and
// near-empty ranges stay flagged on purpose: draws almost never land in
// them, so selecting them is free, and deselecting them would leave
// their final density below their neighbors' — inflating the rmax that
// every merged bucket spanning them must be sized with.
//
// Density: the flagged ranges' estimated mass divides the round's share
// of the remaining one-shot budget (n/SampleRate total kept keys),
// giving the densest affordable round — converged ranges' freed budget
// concentrates on the uncertain ones, which is where adaptive beats
// one-shot. When even the pilot density over all flagged ranges would
// bust the budget, admission tightens to the largest-overshoot ranges by
// threshold doubling (deterministic, no sorting, no allocation).
func (pl *plan) selectRanges(pilot, budget, roundsLeft int) (int, bool) {
	rem := budget - pl.ns
	if rem <= 0 {
		return 0, false
	}
	cln := pl.cfg.C * pl.logn
	tol := pl.cfg.SampleTolerance
	sStar := 2 * cln * (1 + tol) / (tol * tol)
	// minAbs is the projection floor (in records) billed for ranges the
	// histogram knows almost nothing about.
	minAbs := float64(4 * pl.cfg.SampleRate)
	pilotD := 1.0 / float64(pilot)
	over := grow(&pl.ws.smplOver, pl.numLight)
	cand := 0
	var estSum, maxOver float64
	for j := range over {
		over[j] = 0
		d := pl.smplDens[j]
		if d+pilotD > 1+1e-12 {
			continue // already sampling (almost) every record
		}
		s := float64(pl.smplHist[j])
		if s >= sStar {
			continue
		}
		over[j] = (cln + math.Sqrt(cln*cln+2*s*cln)) / d
		cand++
		// Projection floor: a range that kept nothing has an unknown
		// (small, w.h.p.) mass; bill it a few blocks so a swarm of empty
		// ranges cannot talk the planner into sampling everything.
		estSum += math.Max(s/d, minAbs)
		if over[j] > maxOver {
			maxOver = over[j]
		}
	}
	if cand == 0 {
		return 0, false
	}
	// Densest affordable round: spend an even share of the remaining
	// budget over the flagged ranges' estimated mass. On a no-skew input
	// this lands at exactly the one-shot density (pilot + even top-ups
	// tile the same budget); when converged ranges have dropped out of
	// estSum their freed budget raises the density on the uncertain ones
	// — which is where adaptive beats one-shot. A couple of standard
	// deviations of draw jitter are held back so the post-round budget
	// clip in sampleBody almost never has to bite.
	share := float64(rem) / float64(roundsLeft)
	share -= 2 * math.Sqrt(share)
	if share < 1 {
		return 0, false
	}
	density := share / estSum
	if density > 1 {
		density = 1
	}
	// A round much sparser than the pilot adds little information to any
	// range; below a quarter of pilot density, admission switches to
	// concentrating the tiny remainder on the worst ranges instead.
	if density >= pilotD/4 {
		bs := int(math.Ceil(1 / density))
		if bs > pl.n {
			return 0, false
		}
		d := 1.0 / float64(bs)
		nsel := 0
		for j := range over {
			if over[j] > 0 && pl.smplDens[j]+d <= 1+1e-12 {
				pl.smplSel[j] = 1
				nsel++
			} else {
				pl.smplSel[j] = 0
			}
		}
		if nsel == 0 {
			return 0, false
		}
		pl.smplSelCount = nsel
		return bs, true
	}
	// Budget too tight for a meaningful even round: admit only the
	// largest-overshoot ranges that fit the whole remainder at pilot
	// density, by deterministic threshold doubling (no sort, no alloc).
	bsTheta := pilot
	if bsTheta > pl.n {
		return 0, false
	}
	for th := minAbs; th <= maxOver; th *= 2 {
		proj := 0.0
		nsel := 0
		for j := range over {
			if over[j] >= th && over[j] > 0 {
				proj += math.Max(float64(pl.smplHist[j])/pl.smplDens[j], minAbs)/float64(bsTheta) + 1
				nsel++
			}
		}
		if nsel == 0 {
			return 0, false
		}
		if proj <= float64(rem) {
			for j := range over {
				if over[j] >= th && over[j] > 0 {
					pl.smplSel[j] = 1
				} else {
					pl.smplSel[j] = 0
				}
			}
			pl.smplSelCount = nsel
			return bsTheta, true
		}
	}
	return 0, false // even the worst-range-only round busts the budget
}

// buildModel finalizes the attempt's estimator (see estimator.go).
func (pl *plan) buildModel(uniform bool) {
	c := &pl.cfg
	m := &pl.model
	m.logn = pl.logn
	m.c = c.C
	m.cln = c.C * pl.logn
	m.rate = c.SampleRate
	m.delta = c.Delta
	m.deltaRecs = float64(c.Delta * c.SampleRate)
	m.uniform = uniform
	if uniform {
		m.rates, m.thr = nil, nil
		return
	}
	rates := grow(&pl.ws.smplRate, pl.numLight)
	thr := grow(&pl.ws.smplThr, pl.numLight)
	for j := range rates {
		r := float64(c.SampleRate)
		if d := pl.smplDens[j]; d > 0 {
			r = 1 / d
			// Heavy threshold at this density: the count a run needs for
			// its estimate to reach Delta·SampleRate records.
			if t := int32(math.Ceil(m.deltaRecs*d - 1e-9)); t > 1 {
				thr[j] = t
			} else {
				thr[j] = 1
			}
		} else {
			thr[j] = int32(c.Delta)
		}
		rates[j] = r
	}
	m.rates, m.thr = rates, thr
}
