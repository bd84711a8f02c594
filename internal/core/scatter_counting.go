// Phase 3, counting placement: the deterministic two-pass alternative to
// the CAS scatter (ScatterCounting, and the Auto pick under heavy
// duplication).
//
// Pass 1 splits the input into blocks, classifies every record once
// (bucketOfBatch) and builds one bucket histogram per block, writing each
// record's bucket id into a Workspace-owned uint32 column on the way.
// Column-wise prefix sums over the per-block histograms — seeded with an
// exclusive scan of the per-bucket totals — turn each histogram row into
// a set of absolute write cursors, so pass 2 can copy every record
// straight to its final position in the packed output array. Pass 2
// reads the bucket-id column (4 B/rec of sequential traffic) and never
// classifies: no second range load, directory read or table probe. The
// offsets are exact: no CAS, no probing, no overflow, and therefore no
// Las Vegas retry on this path. Phases 4 and 5 still run so traces keep
// the six-phase shape — the local sort works in place in the output, and
// packing is a no-op invariant check: the scatter already packed.
//
// The output is deterministic regardless of block boundaries or worker
// count: bucket b's records appear in global input order because block i's
// cursor for b starts exactly where blocks 0..i-1 left off. Buckets own
// disjoint output ranges and blocks own disjoint cursor rows, so pass 2
// needs no atomics at all.
//
// When the bucket count is small relative to the block size, pass 2
// routes records through small per-worker staging buffers
// (countingStageSlots records — one cache line — per bucket) and flushes
// full lines with a single copy, converting scattered single-record
// stores into sequential line-sized writes (the software write-combining
// trick from the integer-sort literature). With many buckets the staging
// arrays would thrash the cache themselves, so the plan falls back to
// direct stores. The staging buffers live in the Workspace (a flat arena
// handed out through a buffered-channel free-list), so a warm workspace
// stages without allocating.
package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/prim"
	"repro/internal/sortcmp"
)

const (
	// countingGrainMin is the minimum records per pass-1/pass-2 block;
	// below this the per-block histogram dominates the work.
	countingGrainMin = 4096
	// countingStageSlots is the records buffered per bucket before a
	// staged flush — 4 × 16-byte records = one 64-byte cache line.
	countingStageSlots = 4
	// countingStageMaxBytes caps one worker's staging arena. Staging only
	// pays when the arena stays cache-resident: past a few hundred KB the
	// stage writes themselves miss, and the batching doubles the traffic
	// instead of halving it. 256 KB keeps the arena within a typical
	// per-core L2.
	countingStageMaxBytes = 256 << 10
)

// A countingPlan fixes the blocking of both counting-scatter passes and
// prices the scratch memory the attempt will need, so the allocate phase
// can enforce Config.MaxSlotBytes before anything is allocated.
type countingPlan struct {
	grain, nblocks int
	// staged reports whether pass 2 will write through per-worker staging
	// buffers; with more buckets than records per block the buffers would
	// outweigh the writes they batch.
	staged bool
	// scratchBytes prices the per-block histograms, (when staged) the
	// per-worker staging buffers, and the caller's extra scratch.
	scratchBytes int64
}

// planCounting blocks n records over nb bins. extra is the route's scratch
// outside the histograms and staging arena — the bucket-id column and the
// heavy directory — so the one MaxSlotBytes check prices all of it.
func planCounting(n, procs, nb int, extra int64) countingPlan {
	grain := parallel.Grain(n, procs, countingGrainMin)
	nblocks := 0
	if n > 0 {
		nblocks = (n + grain - 1) / grain
	}
	staged := nb <= grain &&
		int64(nb)*(countingStageSlots*16+1) <= countingStageMaxBytes
	scratch := int64(nblocks)*int64(nb)*4 + extra
	if staged {
		// Each in-flight stage holds nb*countingStageSlots records plus
		// one fill counter per bucket; at most procs are in flight.
		scratch += int64(procs) * int64(nb) * (countingStageSlots*16 + 1)
	}
	return countingPlan{grain: grain, nblocks: nblocks, staged: staged, scratchBytes: scratch}
}

// countingStage is the deterministic placement's scatterStage.
type countingStage struct{}

// allocate blocks the two passes over one bin per bucket. The scatter
// writes straight into the output array, so the attempt allocates no
// slot slack: the memory cap governs the histograms, the staging arena,
// the bucket-id column and the heavy directory.
func (countingStage) allocate(pl *plan) error {
	pl.cbins = pl.firstLight + pl.numLightMerged
	pl.cplan = planCounting(pl.n, pl.procs, pl.cbins, int64(pl.n)*4+pl.dirBytes())
	if err := pl.capScratch("counting scatter", pl.cplan.scratchBytes); err != nil {
		return err
	}
	pl.stats.SlotsAllocated = pl.n
	return nil
}

func (countingStage) scatter(pl *plan) error {
	if pl.red != nil {
		// Fused reduce (reduce.go): light records stage into redStage (the
		// output array is not produced until pack), heavy records fold into
		// per-worker cells — or, for Histogram, are skipped entirely in
		// favor of pass 1's counts.
		if err := pl.tr.labeledPhase(pl, "scatter", (*plan).countingReduceScatterBody); err != nil {
			return err
		}
		pl.stats.HeavyRecords = pl.redHeavyRecs
		return nil
	}
	pl.ensureOut()
	if err := pl.tr.labeledPhase(pl, "scatter", (*plan).countingScatterBody); err != nil {
		return err
	}
	pl.stats.HeavyRecords = int(pl.cbase[pl.firstLight])
	pl.stats.ScatterFlushes = pl.flushes.Load()
	return nil
}

// countingScatterBody runs both passes and the cursor conversion between
// them. bucketOf must be pure and return ids in [0, len(buckets)).
func (pl *plan) countingScatterBody() error {
	nb := pl.cbins
	pl.hist = pl.ws.getHist(pl.cplan.nblocks * nb)
	pl.bidCol = grow(&pl.ws.bidCol, pl.n)

	// Pass 1: one bucket histogram per block, and the bucket-id column.
	if err := pl.parFor(pl.cplan.nblocks, 1, (*plan).countingHistChunk); err != nil {
		return err
	}

	// Per-bucket totals (column sums), bucket base offsets (their
	// exclusive scan), then column-wise conversion of each block's
	// histogram entry into an absolute write cursor.
	pl.counts = grow(&pl.ws.counts, nb)
	pl.cbase = grow(&pl.ws.cbase, nb)
	pl.parForNoCtx(nb, 512, (*plan).countingTotalsChunk)
	copy(pl.cbase, pl.counts)
	pl.placedTotal = int(prim.ExclusiveScan(1, pl.cbase))
	pl.parForNoCtx(nb, 512, (*plan).countingCursorChunk)

	// Pass 2: copy records to their final positions by the column,
	// optionally through line-sized staging buffers.
	if pl.cplan.staged {
		pl.ws.ensureStages(pl.procs, nb)
	}
	return pl.parFor(pl.cplan.nblocks, 1, (*plan).countingPassChunk)
}

// countingHistChunk is pass 1 over blocks [blo, bhi): classify each
// record once, count it, and record its bucket id in the column. The
// fused-reduce arm shares it (reduce.go).
func (pl *plan) countingHistChunk(blo, bhi int) {
	nb := pl.cbins
	col := pl.bidCol
	var bids [probeBatch]int64
	var heavy [probeBatch]bool
	for blk := blo; blk < bhi; blk++ {
		h := pl.hist[blk*nb : (blk+1)*nb]
		lo, hi := blk*pl.cplan.grain, min((blk+1)*pl.cplan.grain, pl.n)
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
		for blk := 0; blk < pl.cplan.nblocks; blk++ {
			s += pl.hist[blk*nb+b]
		}
		pl.counts[b] = s
	}
}

func (pl *plan) countingCursorChunk(lo, hi int) {
	nb := pl.cbins
	for b := lo; b < hi; b++ {
		run := pl.cbase[b]
		for blk := 0; blk < pl.cplan.nblocks; blk++ {
			c := pl.hist[blk*nb+b]
			pl.hist[blk*nb+b] = run
			run += c
		}
	}
}

// countingPassChunk is pass 2 over blocks [blo, bhi): each record goes
// to its bucket's cursor, the bucket read from pass 1's column.
func (pl *plan) countingPassChunk(blo, bhi int) {
	nb := pl.cbins
	var nf int64
	for blk := blo; blk < bhi; blk++ {
		offs := pl.hist[blk*nb : (blk+1)*nb]
		lo, hi := blk*pl.cplan.grain, min((blk+1)*pl.cplan.grain, pl.n)
		src, col := pl.a[lo:hi], pl.bidCol[lo:hi]
		if !pl.cplan.staged || fault.Should(fault.StageFlush) {
			for i, bid := range col {
				pl.out[offs[bid]] = src[i]
				offs[bid]++
			}
			continue
		}
		slot := pl.ws.acquireStage()
		buf := pl.ws.stageBuf[slot*nb*countingStageSlots : (slot+1)*nb*countingStageSlots]
		cnt := pl.ws.stageCnt[slot*nb : (slot+1)*nb]
		for i, bid := range col {
			c := cnt[bid]
			buf[int(bid)*countingStageSlots+int(c)] = src[i]
			c++
			if int(c) == countingStageSlots {
				p := offs[bid]
				copy(pl.out[p:p+countingStageSlots],
					buf[int(bid)*countingStageSlots:(int(bid)+1)*countingStageSlots])
				offs[bid] = p + countingStageSlots
				cnt[bid] = 0
				nf++
			} else {
				cnt[bid] = c
			}
		}
		// Drain partial lines, restoring the all-zero cnt invariant.
		for b := 0; b < nb; b++ {
			c := cnt[b]
			if c == 0 {
				continue
			}
			p := offs[b]
			copy(pl.out[p:p+int32(c)], buf[b*countingStageSlots:b*countingStageSlots+int(c)])
			offs[b] = p + int32(c)
			cnt[b] = 0
		}
		pl.ws.releaseStage(slot)
	}
	pl.flushes.Add(nf)
}

// localSort semisorts each light bucket in place in the output (Phase 4);
// the counting scatter already placed every bucket at its final packed
// offset. Buckets are traversed in size-aware ranges (planLightRanges);
// this path knows every bucket's exact record count from pass 1, so that
// is the weight. A fused reduce serves each range from one workspace
// arena.
func (countingStage) localSort(pl *plan) error {
	pl.planLightRanges((*plan).countingBucketWeight)
	if pl.red != nil {
		pl.ws.ensureArenas(pl.procs)
		pl.redDistinct = grow(&pl.ws.redDistinct, pl.numLightMerged)
		return pl.tr.labeledPhase(pl, "reduce", (*plan).countingReduceBody)
	}
	return pl.tr.labeledPhase(pl, "localsort", (*plan).countingLocalSortBody)
}

func (pl *plan) countingBucketWeight(j int) int64 {
	return int64(pl.counts[pl.firstLight+j])
}

func (pl *plan) countingLocalSortBody() error {
	return pl.parForEach(pl.lsRanges, 1, (*plan).countingLocalSortRange)
}

func (pl *plan) countingLocalSortRange(ri int) {
	for j := int(pl.lsBounds[ri]); j < int(pl.lsBounds[ri+1]); j++ {
		b := pl.firstLight + j
		lo := int(pl.cbase[b])
		sortcmp.Introsort(pl.out[lo : lo+int(pl.counts[b])])
	}
}

// pack is a no-op invariant check: the scatter already packed. The fused
// reduce arm instead merges heavy cells and compacts the reduced light
// prefixes (reduce.go).
func (countingStage) pack(pl *plan) error {
	if pl.red != nil {
		return pl.packReduceCounting()
	}
	if pl.placedTotal != pl.n {
		return fmt.Errorf("semisort internal error: counting scatter placed %d of %d records", pl.placedTotal, pl.n)
	}
	return nil
}
