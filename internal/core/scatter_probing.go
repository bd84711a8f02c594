// Phase 3, probing placement (paper Sections 3 and 4, Phase 3): write
// every record to a pseudo-random slot of its bucket, claiming slots with
// compare-and-swap and probing on collision. Phase 4 then compacts and
// semisorts the light buckets in the slot arrays, and Phase 5 packs the
// heavy region with the interval technique and copies the already-compact
// light buckets into the output.
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/prim"
	"repro/internal/sortcmp"
)

// probingStage is the paper's placement: CAS + probing into slack-sized
// slot arrays, with the Las Vegas overflow contract.
type probingStage struct{}

func (probingStage) strategy() ScatterStrategy { return ScatterProbing }

func (probingStage) scatter(pl *plan) error {
	if fault.Should(fault.ScatterOverflow) {
		return &overflowError{buckets: map[int32]int32{0: 1}}
	}
	if pl.red != nil {
		// Fused reduce (reduce.go): heavy records fold into per-worker
		// cells, light records scatter as usual. ReduceShared forces
		// ProbeLinear, so the block-rounds arm cannot be reached here.
		if err := pl.tr.labeledPhase(pl, "scatter", (*plan).probeReduceScatterBody); err != nil {
			return err
		}
		if pl.overflow.Load() {
			return &overflowError{buckets: pl.ofBuckets}
		}
	} else if pl.cfg.Probe == ProbeBlockRounds {
		if err := pl.tr.labeledPhase(pl, "scatter", (*plan).blockRoundsBody); err != nil {
			return err
		}
	} else {
		if err := pl.tr.labeledPhase(pl, "scatter", (*plan).probeScatterBody); err != nil {
			return err
		}
		if pl.overflow.Load() {
			return &overflowError{buckets: pl.ofBuckets}
		}
	}
	pl.stats.HeavyRecords = int(pl.heavyPlaced.Load())
	pl.stats.MaxProbeCluster = int(pl.maxCluster.Load())
	return nil
}

// blockRoundsBody runs the Section 3 ablation placement: synchronous
// rounds over ~log n record blocks (rounds.go). It keeps the bucketOf
// method value it needs; the ablation path is not allocation-free.
func (pl *plan) blockRoundsBody() error {
	return scatterBlockRounds(pl.procs, pl.a, pl.buckets, pl.slots, pl.occ,
		pl.bucketOf, pl.scatterRNG, pl.cfg.ExactBucketSizes, &pl.heavyPlaced)
}

func (pl *plan) probeScatterBody() error {
	return pl.parFor(pl.n, 8192, (*plan).probeScatterChunk)
}

// probeScatterChunk places records [lo, hi) — the hot loop of the probing
// scatter. A rejected record records the deficient bucket and aborts the
// attempt (the Las Vegas retry regrows that bucket); other chunks notice
// via the overflow flag and return early.
func (pl *plan) probeScatterChunk(lo, hi int) {
	if pl.overflow.Load() {
		return
	}
	if fault.Should(fault.ProbeSaturation) {
		bid, _ := pl.bucketOf(pl.a[lo])
		pl.recordOverflow(bid)
		return
	}
	exact := pl.cfg.ExactBucketSizes
	random := pl.cfg.Probe == ProbeRandom
	localHeavy := int64(0)
	localMaxRun := int64(0)
	// Records are classified in blocks of probeBatch so the heavy-directory
	// lookups overlap their cache misses (bucketOfBatch); placement then
	// proceeds per record in input order with the same per-index RNG, so
	// the output is bit-for-bit what the scalar loop produced.
	var bids [probeBatch]int64
	var heavy [probeBatch]bool
	for base := lo; base < hi; base += probeBatch {
		m := min(probeBatch, hi-base)
		pl.bucketOfBatch(base, m, &bids, &heavy)
		for u := 0; u < m; u++ {
			i := base + u
			r := pl.a[i]
			bid := bids[u]
			if heavy[u] {
				localHeavy++
			}
			bk := pl.buckets[bid]
			pos := bucketPos(pl.scatterRNG.Rand(uint64(i)), bk.sz, exact)
			placed := false
			for try := uint64(0); try < bk.sz; try++ {
				idx := bk.off + int64(pos)
				if random {
					idx = bk.off + int64(bucketPos(pl.scatterRNG.Rand(uint64(i)^(try+1)<<32), bk.sz, exact))
				}
				if atomic.CompareAndSwapUint32(&pl.occ[idx], 0, 1) {
					pl.slots[idx] = r
					placed = true
					if int64(try) > localMaxRun {
						localMaxRun = int64(try)
					}
					break
				}
				pos++
				if pos == bk.sz {
					pos = 0
				}
			}
			if !placed {
				pl.recordOverflow(bid)
				return
			}
		}
	}
	pl.heavyPlaced.Add(localHeavy)
	for {
		cur := pl.maxCluster.Load()
		if localMaxRun <= cur || pl.maxCluster.CompareAndSwap(cur, localMaxRun) {
			break
		}
	}
}

// recordOverflow notes which bucket rejected a record, so the retry can
// regrow only the deficient region. Failures are terminal for the attempt
// (each worker records at most one), so a mutex-protected map is fine.
func (pl *plan) recordOverflow(bid int64) {
	pl.ofMu.Lock()
	if pl.ofBuckets == nil {
		pl.ofBuckets = make(map[int32]int32)
	}
	pl.ofBuckets[int32(bid)]++
	pl.ofMu.Unlock()
	pl.overflow.Store(true)
}

// localSort compacts each light bucket within its slot range and semisorts
// it there (Phase 4); the compacted counts feed the pack phase. Buckets
// are traversed in size-aware ranges (planLightRanges); on this path a
// bucket's cost is dominated by scanning its slot range, so the weight is
// the slot-array length. A fused reduce serves each range from one
// workspace arena.
func (probingStage) localSort(pl *plan) error {
	pl.lightCnt = grow(&pl.ws.lightCnt, pl.numLightMerged)
	pl.planLightRanges((*plan).probeBucketWeight)
	if pl.red != nil {
		pl.ws.ensureArenas(pl.procs)
		pl.redDistinct = grow(&pl.ws.redDistinct, pl.numLightMerged)
		pl.redStageReps = grow(&pl.ws.redStageReps, int(pl.slotTotal))
		return pl.tr.labeledPhase(pl, "reduce", (*plan).probeReduceBody)
	}
	return pl.tr.labeledPhase(pl, "localsort", (*plan).probeLocalSortBody)
}

func (pl *plan) probeBucketWeight(j int) int64 {
	return int64(pl.buckets[pl.firstLight+j].sz)
}

func (pl *plan) probeLocalSortBody() error {
	return pl.parForEach(pl.lsRanges, 1, (*plan).probeLocalSortRange)
}

func (pl *plan) probeLocalSortRange(ri int) {
	for j := int(pl.lsBounds[ri]); j < int(pl.lsBounds[ri+1]); j++ {
		bk := pl.buckets[pl.firstLight+j]
		lo, hi := bk.off, bk.off+int64(bk.sz)
		w := lo
		for i := lo; i < hi; i++ {
			if pl.occ[i] != 0 {
				pl.slots[w] = pl.slots[i]
				w++
			}
		}
		cnt := int(w - lo)
		pl.lightCnt[j] = int32(cnt)
		sortcmp.Introsort(pl.slots[lo : lo+int64(cnt)])
	}
}

// pack compacts the heavy region with the interval technique and copies
// the already-compact light buckets, all into one contiguous output array
// (Phase 5).
func (probingStage) pack(pl *plan) error {
	if pl.red != nil {
		return pl.packReduceProbing()
	}
	pl.ensureOut()
	pl.heavyTotal, pl.lightTotal = 0, 0
	if err := pl.tr.labeledPhase(pl, "pack", (*plan).probePackBody); err != nil {
		return err
	}
	if pl.heavyTotal+int(pl.lightTotal) != pl.n {
		return fmt.Errorf("semisort internal error: packed %d of %d records", pl.heavyTotal+int(pl.lightTotal), pl.n)
	}
	return nil
}

func (pl *plan) probePackBody() error {
	// Heavy region: split [0, heavySlotEnd) into ~1000 intervals; compact
	// each interval in place, prefix-sum the counts, copy out.
	if pl.heavySlotEnd > 0 {
		intervals := 1000
		if pl.heavySlotEnd < int64(intervals)*64 {
			intervals = int(pl.heavySlotEnd/64) + 1
		}
		pl.intervals = intervals
		pl.ilen = (pl.heavySlotEnd + int64(intervals) - 1) / int64(intervals)
		pl.packCounts = grow(&pl.ws.packCounts, intervals)
		pl.parForEachNoCtx(intervals, 1, (*plan).packCompactInterval)
		pl.packTotal = prim.ExclusiveScan(1, pl.packCounts)
		pl.heavyTotal = int(pl.packTotal)
		pl.parForEachNoCtx(intervals, 1, (*plan).packCopyInterval)
	}

	// Light region: per-bucket counts are known; prefix sum for offsets,
	// then parallel copy.
	pl.lightOffsets = grow(&pl.ws.lightOffsets, pl.numLightMerged)
	copy(pl.lightOffsets, pl.lightCnt)
	pl.lightTotal = prim.ExclusiveScan(1, pl.lightOffsets)
	pl.parForEachNoCtx(pl.numLightMerged, 1, (*plan).packCopyLight)
	return nil
}

func (pl *plan) packCompactInterval(iv int) {
	lo := int64(iv) * pl.ilen
	hi := min64(lo+pl.ilen, pl.heavySlotEnd)
	w := lo
	for i := lo; i < hi; i++ {
		if pl.occ[i] != 0 {
			pl.slots[w] = pl.slots[i]
			w++
		}
	}
	pl.packCounts[iv] = int32(w - lo)
}

func (pl *plan) packCopyInterval(iv int) {
	lo := int64(iv) * pl.ilen
	cnt := int32(0)
	if iv+1 < pl.intervals {
		cnt = pl.packCounts[iv+1] - pl.packCounts[iv]
	} else {
		cnt = pl.packTotal - pl.packCounts[iv]
	}
	if cnt == 0 {
		// Intervals past heavySlotEnd are empty, and their lo may exceed
		// the slot array; indexing would panic.
		return
	}
	copy(pl.out[pl.packCounts[iv]:int(pl.packCounts[iv])+int(cnt)], pl.slots[lo:lo+int64(cnt)])
}

func (pl *plan) packCopyLight(j int) {
	bk := pl.buckets[pl.firstLight+j]
	dst := pl.heavyTotal + int(pl.lightOffsets[j])
	copy(pl.out[dst:dst+int(pl.lightCnt[j])], pl.slots[bk.off:bk.off+int64(pl.lightCnt[j])])
}
