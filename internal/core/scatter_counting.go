// Phase 3, counting placement: the deterministic two-pass scatter every
// fused reduce runs (ScatterCounting; see reduce.go for the fold it
// carries).
//
// Pass 1 splits the input into blocks, classifies every record once
// (bucketOfBatch) and builds one bucket histogram per block, writing each
// record's bucket id into a Workspace-owned uint32 column on the way.
// Column-wise prefix sums over the per-block histograms — seeded with an
// exclusive scan of the per-bucket totals — turn each histogram row into
// a set of absolute write cursors, so pass 2 can copy every light record
// straight to its position in the reduce staging area, and fold every
// heavy record into a per-worker accumulator cell. Pass 2 reads the
// bucket-id column (4 B/rec of sequential traffic) and never classifies:
// no second range load, directory read or table probe. The offsets are
// exact: no CAS, no probing, no overflow, and therefore no Las Vegas
// retry on this path. Phase 4 then reduces each light bucket in a
// per-worker arena, and Phase 5 merges the heavy cells and compacts the
// reduced light buckets into the output.
//
// The placement is deterministic regardless of block boundaries or
// worker count: bucket b's records appear in global input order because
// block i's cursor for b starts exactly where blocks 0..i-1 left off.
// Buckets own disjoint staging ranges and blocks own disjoint cursor
// rows, so pass 2 needs no atomics at all.
package core

import (
	"repro/internal/parallel"
)

// countingGrainMin is the minimum records per pass-1/pass-2 block;
// below this the per-block histogram dominates the work.
const countingGrainMin = 4096

// countingStage is the fused reduce's scatterStage.
type countingStage struct{}

// allocate blocks the two passes over one bin per bucket and prices the
// scratch known before pass 1 against Config.MaxSlotBytes, then sizes the
// per-worker heavy cells. The attempt allocates no slot slack.
func (countingStage) allocate(pl *plan) error {
	pl.cbins = pl.firstLight + pl.numLightMerged
	pl.cgrain = parallel.Grain(pl.n, pl.procs, countingGrainMin)
	pl.cblocks = (pl.n + pl.cgrain - 1) / pl.cgrain
	if err := pl.capScratch("counting scatter", pl.countingScratch(0, 0)); err != nil {
		return err
	}
	pl.ensureReduceState()
	pl.stats.SlotsAllocated = pl.n
	return nil
}

// countingScratch is the route's scratch in bytes with light records
// staged: the per-block histograms, the bucket-id column, the heavy
// directory, the per-worker heavy cells, the light staging area with its
// representatives, and the Phase 4 reduce arenas, one per worker that
// can hold a light bucket of maxBucket records at once. allocate prices
// it with no light records; countingReduceScatterBody prices it again
// with pass 1's exact light count and largest light bucket, before it
// grows the staging area.
func (pl *plan) countingScratch(light, maxBucket int) int64 {
	workers := int64(min(pl.procs, pl.numLightMerged))
	return int64(pl.cblocks)*int64(pl.cbins)*4 + int64(pl.n)*4 + pl.dirBytes() +
		int64(pl.procs)*int64(pl.firstLight)*20 + int64(light)*24 +
		workers*arenaBytes(maxBucket)
}

// scatter runs both passes (countingReduceScatterBody): light records
// stage into redStage (the output array is not produced until pack), and
// heavy records fold into per-worker cells — or, for Histogram, are
// skipped entirely in favor of pass 1's counts.
func (countingStage) scatter(pl *plan) error {
	return pl.tr.labeledPhase(pl, "scatter", (*plan).countingReduceScatterBody)
}

// countingHistChunk is pass 1 over blocks [blo, bhi): classify each
// record once, count it, and record its bucket id in the column.
func (pl *plan) countingHistChunk(blo, bhi int) {
	nb := pl.cbins
	col := pl.bidCol
	var bids [probeBatch]int64
	var heavy [probeBatch]bool
	for blk := blo; blk < bhi; blk++ {
		h := pl.hist[blk*nb : (blk+1)*nb]
		lo, hi := blk*pl.cgrain, min((blk+1)*pl.cgrain, pl.n)
		for base := lo; base < hi; base += probeBatch {
			m := min(probeBatch, hi-base)
			pl.bucketOfBatch(base, m, &bids, &heavy)
			for u := 0; u < m; u++ {
				b := bids[u]
				col[base+u] = uint32(b)
				h[b]++
			}
		}
	}
}

func (pl *plan) countingTotalsChunk(lo, hi int) {
	nb := pl.cbins
	for b := lo; b < hi; b++ {
		var s int32
		for blk := 0; blk < pl.cblocks; blk++ {
			s += pl.hist[blk*nb+b]
		}
		pl.counts[b] = s
	}
}

func (pl *plan) countingCursorChunk(lo, hi int) {
	nb := pl.cbins
	for b := lo; b < hi; b++ {
		run := pl.cbase[b]
		for blk := 0; blk < pl.cblocks; blk++ {
			c := pl.hist[blk*nb+b]
			pl.hist[blk*nb+b] = run
			run += c
		}
	}
}

// localSort reduces each light bucket in place in the staging area
// (Phase 4), one workspace arena per size-aware range
// (planLightRanges). This path knows every bucket's exact record count
// from pass 1, so that is the weight.
func (countingStage) localSort(pl *plan) error {
	pl.planLightRanges((*plan).countingBucketWeight)
	pl.ws.ensureArenas(pl.procs)
	pl.redDistinct = grow(&pl.ws.redDistinct, pl.numLightMerged)
	return pl.tr.labeledPhase(pl, "reduce", (*plan).countingReduceBody)
}

func (pl *plan) countingBucketWeight(j int) int64 {
	return int64(pl.counts[pl.firstLight+j])
}

// pack merges the heavy cells and compacts the reduced light prefixes
// into the group-sized output (reduce.go).
func (countingStage) pack(pl *plan) error {
	return pl.packReduceCounting()
}
