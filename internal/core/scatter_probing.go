// Phase 3, probing placement (paper Sections 3 and 4, Phase 3): write
// every record to a pseudo-random slot of its bucket, claiming slots with
// compare-and-swap and probing on collision. Phase 2 sizes each bucket's
// slot range with the f(s) bound (allocate), Phase 4 then compacts and
// semisorts the light buckets in the slot arrays, and Phase 5 packs the
// heavy region with the interval technique and copies the already-compact
// light buckets into the output. An undersized bucket overflows, and the
// Las Vegas restart (runAttempts, attempts.go) redraws the sample with
// doubled slack.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/hash"
	"repro/internal/prim"
	"repro/internal/rec"
	"repro/internal/sortcmp"
)

// probeState is the plan state only the probing stage reads, embedded in
// the plan so begin and clearRefs reset it with the rest.
type probeState struct {
	scatterRNG hash.RNG // placement randomness: fresh every attempt
	// Phase 2: f(s)-sized slot ranges, heavy buckets first.
	buckets                 []bucket
	heavySlotEnd, slotTotal int64
	// Phase 3.
	slots                   []rec.Record
	occ                     []uint32
	overflow                atomic.Bool
	heavyPlaced, maxCluster atomic.Int64
	ofMu                    sync.Mutex
	ofBuckets               map[int32]int32 // bucket id → failed placements
	// Phases 4–5: light compaction and the interval pack.
	lightCnt, lightOffsets, packCounts []int32
	intervals, heavyTotal              int
	ilen                               int64
	packTotal, lightTotal              int32
}

// bucket describes one slot range: [off, off+sz) in the slot arrays.
type bucket struct {
	off int64
	sz  uint64 // a power of two (sizeEstimate), so a slot index is a mask
}

// probingStage is the paper's placement: CAS + probing into slack-sized
// slot arrays, with the Las Vegas overflow contract.
type probingStage struct{}

// allocate sizes every bucket with the high-probability estimate f(s)
// from Section 3.1 times Config.Slack (sizeEstimate) and carves them all
// out of one slot array so Phase 5 can pack with simple interval scans.
func (probingStage) allocate(pl *plan) error {
	c := &pl.cfg
	pl.buckets = growEmpty(&pl.ws.buckets, pl.firstLight+pl.numLightMerged)
	place := func(samples int) {
		size := sizeEstimate(samples, pl.logn, c.C, c.Slack, c.SampleRate)
		pl.buckets = append(pl.buckets, bucket{off: pl.slotTotal, sz: uint64(size)})
		pl.slotTotal += int64(size)
	}
	for _, hr := range pl.heavyRuns {
		place(int(hr.count))
	}
	pl.heavySlotEnd = pl.slotTotal
	// A merged light bucket is a run of hash ranges sharing one id, sized
	// from their summed sample count.
	var acc int32
	for i := 0; i < pl.numLight; i++ {
		acc += pl.lightCounts[i]
		if i+1 < pl.numLight && pl.lightBucketOf[i+1] == pl.lightBucketOf[i] {
			continue
		}
		place(int(acc))
		acc = 0
	}
	if err := pl.capScratch("probing scatter slots", pl.slotTotal*16); err != nil {
		return err
	}
	pl.slots, pl.occ = pl.ws.getSlots(pl.slotTotal)
	pl.stats.SlotsAllocated = int(pl.slotTotal)
	return nil
}

func (probingStage) scatter(pl *plan) error {
	if fault.Should(fault.ScatterOverflow) {
		return &overflowError{buckets: map[int32]int32{0: 1}}
	}
	if err := pl.tr.labeledPhase(pl, "scatter", (*plan).probeScatterBody); err != nil {
		return err
	}
	if pl.overflow.Load() {
		return &overflowError{buckets: pl.ofBuckets}
	}
	pl.stats.HeavyRecords = int(pl.heavyPlaced.Load())
	pl.stats.MaxProbeCluster = int(pl.maxCluster.Load())
	return nil
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
	// Records are classified in blocks of probeBatch so the heavy-directory
	// lookups overlap their cache misses (bucketOfBatch); placement then
	// proceeds per record in input order with the same per-index RNG, so
	// the batching does not change the output.
	var bids [probeBatch]int64
	var heavy [probeBatch]bool
	if fault.Should(fault.ProbeSaturation) {
		pl.bucketOfBatch(lo, 1, &bids, &heavy)
		pl.recordOverflow(bids[0])
		return
	}
	localHeavy := int64(0)
	localMaxRun := int64(0)
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
			pos := pl.scatterRNG.Rand(uint64(i)) & (bk.sz - 1)
			placed := false
			for try := uint64(0); try < bk.sz; try++ {
				idx := bk.off + int64(pos)
				if atomic.CompareAndSwapUint32(&pl.occ[idx], 0, 1) {
					pl.slots[idx] = r
					placed = true
					if int64(try) > localMaxRun {
						localMaxRun = int64(try)
					}
					break
				}
				pos = (pos + 1) & (bk.sz - 1)
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

// recordOverflow notes which bucket rejected a record, for
// Stats.OverflowedBuckets and OverflowDeficit. Failures are terminal for the attempt
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
// the slot-array length.
func (probingStage) localSort(pl *plan) error {
	pl.lightCnt = grow(&pl.ws.lightCnt, pl.numLightMerged)
	pl.planLightRanges((*plan).probeBucketWeight)
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
	hi := min(lo+pl.ilen, pl.heavySlotEnd)
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
