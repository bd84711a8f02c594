// Phase 2a — classification (paper Section 4, Phase 2, first half):
// extract the distinct-key runs of the sorted sample, classify each run
// as heavy (at least Delta sample occurrences) or light, and histogram
// the light runs over the hash-range slices. Classification and
// allocation (buckets.go) share the "bucket construction" phase gate and
// the PhaseTimes.Buckets clock; they are traced as separate spans.
package core

import (
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/prim"
)

// A heavyRun is one heavy key's run in the sorted sample.
type heavyRun struct {
	key   uint64
	count int32
}

// classifyPhase classifies the sample's runs.
func (pl *plan) classifyPhase() error {
	if err := phaseGate(pl.ctx, "bucket construction"); err != nil {
		return err
	}
	pl.tr.phaseStart(pl.attempt, obsv.PhaseClassify)
	pl.bucketsT0 = time.Now()
	pl.computeRanges()
	_ = pl.tr.labeledPhase(pl, "classify", (*plan).classifyBody)
	pl.tr.span(pl.attempt, obsv.PhaseClassify, pl.bucketsT0, obsv.OutcomeOK)
	return nil
}

// computeRanges fixes the attempt's hash-range geometry: numLight ranges
// selected by a key's top bits, so numLight is a power of two.
//
// Effective light bucket count: ~n/1024 hash-range slices, matching the
// paper's records-per-bucket ratio (2^16 buckets for n=10^8 is ~1500
// records each); we adapt for smaller n instead of fixing 2^16. The cap,
// Config.MaxLightBuckets, rounds down to a power of two.
func (pl *plan) computeRanges() {
	numLight := 1
	if pl.n > 1024 {
		numLight = 1 << uint(bits.Len(uint(pl.n/1024-1)))
	}
	numLight = min(numLight, 1<<uint(bits.Len(uint(pl.cfg.MaxLightBuckets))-1))
	pl.numLight = numLight
	pl.shift = uint(64 - bits.Len(uint(numLight-1)))
	if numLight == 1 {
		pl.shift = 64
	}
}

// classifyBody runs the classification proper: run-start extraction, then
// a count pass and a fill pass over run blocks (two deterministic passes
// into workspace-owned flat arrays, replacing per-block append lists).
func (pl *plan) classifyBody() error {
	pl.computeRunStarts()
	pl.lightCounts = growClear(&pl.ws.lightCounts, pl.numLight)
	grain := parallel.Grain(pl.numRuns, pl.procs, 512)
	pl.runGrain = grain
	nblocks := 0
	if pl.numRuns > 0 {
		nblocks = (pl.numRuns + grain - 1) / grain
	}
	pl.runBlocks = nblocks
	pl.blockHeavy = grow(&pl.ws.blockHeavy, nblocks)
	pl.parForNoCtx(nblocks, 1, (*plan).classifyCountChunk)
	// Exclusive scan turns per-block heavy counts into write offsets for
	// the fill pass; heavy runs land in block-major order, exactly the
	// order the old per-block list walk produced (bucket ids depend on it).
	pl.numHeavy = int(prim.ExclusiveScan(1, pl.blockHeavy))
	pl.heavyRuns = grow(&pl.ws.heavyRuns, pl.numHeavy)
	pl.parForNoCtx(nblocks, 1, (*plan).classifyFillChunk)
	return nil
}

// runCount returns the sample-run length of run ri.
func (pl *plan) runCount(ri int) int32 {
	start := int(pl.runStarts[ri])
	end := pl.ns
	if ri+1 < pl.numRuns {
		end = int(pl.runStarts[ri+1])
	}
	return int32(end - start)
}

func (pl *plan) classifyCountChunk(blo, bhi int) {
	delta := int32(pl.cfg.Delta)
	for blk := blo; blk < bhi; blk++ {
		s, e := blk*pl.runGrain, min((blk+1)*pl.runGrain, pl.numRuns)
		var nHeavy int32
		for ri := s; ri < e; ri++ {
			count := pl.runCount(ri)
			if count >= delta {
				nHeavy++
			} else {
				atomic.AddInt32(&pl.lightCounts[pl.sample[pl.runStarts[ri]]>>pl.shift], count)
			}
		}
		pl.blockHeavy[blk] = nHeavy
	}
}

func (pl *plan) classifyFillChunk(blo, bhi int) {
	delta := int32(pl.cfg.Delta)
	for blk := blo; blk < bhi; blk++ {
		s, e := blk*pl.runGrain, min((blk+1)*pl.runGrain, pl.numRuns)
		off := pl.blockHeavy[blk]
		for ri := s; ri < e; ri++ {
			count := pl.runCount(ri)
			if count >= delta {
				pl.heavyRuns[off] = heavyRun{key: pl.sample[pl.runStarts[ri]], count: count}
				off++
			}
		}
	}
}

// computeRunStarts gathers the offsets of distinct-key runs in the sorted
// sample into the workspace (the PackIndex of the monolithic pipeline,
// without its per-call allocations): a plain append scan when serial, a
// count/scan/fill pair of passes when parallel. Both produce the same
// ascending index list.
func (pl *plan) computeRunStarts() {
	ns := pl.ns
	if ns == 0 {
		pl.runStarts = pl.ws.runStarts[:0]
		pl.numRuns = 0
		return
	}
	if pl.procs == 1 || ns < 8192 {
		rs := pl.ws.runStarts[:0]
		for i := 0; i < ns; i++ {
			if i == 0 || pl.sample[i] != pl.sample[i-1] {
				rs = append(rs, int32(i))
			}
		}
		pl.ws.runStarts = rs
		pl.runStarts = rs
		pl.numRuns = len(rs)
		return
	}
	grain := parallel.Grain(ns, pl.procs, 4096)
	nblocks := (ns + grain - 1) / grain
	pl.rsGrain = grain
	pl.runCounts = grow(&pl.ws.runCounts, nblocks)
	pl.parForNoCtx(nblocks, 1, (*plan).runStartCountChunk)
	total := int(prim.ExclusiveScan(1, pl.runCounts))
	pl.runStarts = grow(&pl.ws.runStarts, total)
	pl.parForNoCtx(nblocks, 1, (*plan).runStartFillChunk)
	pl.numRuns = total
}

func (pl *plan) runStartCountChunk(blo, bhi int) {
	for blk := blo; blk < bhi; blk++ {
		s, e := blk*pl.rsGrain, min((blk+1)*pl.rsGrain, pl.ns)
		var c int32
		for i := s; i < e; i++ {
			if i == 0 || pl.sample[i] != pl.sample[i-1] {
				c++
			}
		}
		pl.runCounts[blk] = c
	}
}

func (pl *plan) runStartFillChunk(blo, bhi int) {
	for blk := blo; blk < bhi; blk++ {
		s, e := blk*pl.rsGrain, min((blk+1)*pl.rsGrain, pl.ns)
		off := pl.runCounts[blk]
		for i := s; i < e; i++ {
			if i == 0 || pl.sample[i] != pl.sample[i-1] {
				pl.runStarts[off] = int32(i)
				off++
			}
		}
	}
}
