// Phase 3, dovetail placement (ScatterDovetail): the skew-adaptive
// hybrid's radix route, taken when the planner saw an (at most) lightly
// duplicated sample.
//
// The scatter reuses the counting machinery (scatter_counting.go) over
// cbins = firstLight+1 bins: one bin per heavy bucket in bucket-id
// order, plus a single catch-all bin collecting every light record.
// Both passes classify records with the counting scatter's pass-1
// classifier (bucketOfBatch) and clamp light bucket ids to the catch-all
// bin. Unlike the counting scatter, the split keeps no bucket-id column:
// its light records already resolve with one load, and the column's
// write and read would cost more than that load. The heavy keys the
// Phase 1 sample found are placed exactly once — as packed, grouped
// prefixes of the output — and never travel through the radix recursion
// (the dovetail trick, applied at the pipeline's top level). With no
// heavy buckets at all the split is the identity and does nothing: the
// radix recursion's top pass reads the input directly (SemisortFrom).
//
// Phase 4 then groups the light region with internal/sortint's dovetail
// semisort: a top-down MSD radix recursion with size-adaptive digits
// that re-samples every large node and pulls that node's heavy keys out
// of its distribution pass. Its out-of-place passes run against the
// workspace-owned radix scratch and count tables (rxScratch, rxTables),
// so warm runs allocate nothing at Procs 1 and a fixed number of
// goroutine closures at Procs > 1 (about 120 per call for the whole
// route on a light input, whatever its size;
// TestSteadyStateAllocsParallelDefault). Phase 5 is the same placement
// invariant check as the counting path — the scatter already packed.
//
// Determinism matches the counting scatter's: the split is stable in
// input order regardless of block boundaries or worker count, the radix
// recursion is deterministic by construction, and the heavy set depends
// only on the attempt's sample — so for a fixed seed the output is
// byte-identical across Procs. Like the counting path there is no CAS,
// no probing and no overflow, hence no Las Vegas retry; errors out of
// this stage are cancellations (or injected faults at radix nodes).
package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/prim"
)

// dovetailStage is the hybrid placement's scatterStage.
type dovetailStage struct{}

// allocate blocks the split over one bin per heavy bucket plus a single
// catch-all bin for every light record. No slot arrays on either side:
// the memory cap governs the counting scratch (the split classifies in
// both passes, so it needs no bucket-id column) plus the
// 16-bytes-per-record radix scratch the light region is grouped against.
func (dovetailStage) allocate(pl *plan) error {
	pl.cbins = pl.firstLight + 1
	pl.cplan = planCounting(pl.n, pl.procs, pl.cbins, pl.dirBytes())
	if err := pl.capScratch("dovetail scatter", pl.cplan.scratchBytes+int64(pl.n)*16); err != nil {
		return err
	}
	pl.stats.SlotsAllocated = pl.n
	return nil
}

func (dovetailStage) scatter(pl *plan) error {
	pl.ensureOut()
	if pl.numHeavy == 0 {
		// No heavy buckets: the split is the identity, so there is nothing
		// to place. Phase 4's top radix pass reads the input itself
		// (dovetailLocalSortBody).
		pl.heavyEnd = 0
		pl.placedTotal = pl.n
		// The top-level hand-off is itself one radix node: the planner saw
		// no heavy keys and routed the whole input to the recursion. (The
		// recursion's own counters only cover nodes large enough to
		// re-sample, so this keeps PlannerRoutes populated at small n.)
		pl.stats.PlannerRoutes.RadixNodes++
		return nil
	}
	if err := pl.tr.labeledPhase(pl, "scatter", (*plan).dovetailScatterBody); err != nil {
		return err
	}
	pl.heavyEnd = int(pl.cbase[pl.firstLight])
	pl.stats.HeavyRecords = pl.heavyEnd
	pl.stats.ScatterFlushes = pl.flushes.Load()
	// The top-level split is itself one dovetail node: the sampled heavy
	// keys were pulled out of the recursion and placed once.
	pl.stats.PlannerRoutes.DovetailNodes++
	pl.stats.PlannerRoutes.HeavyKeysDovetailed += int64(pl.numHeavy)
	return nil
}

// dovetailScatterBody is countingScatterBody over the split's bins: the
// totals/cursor conversions are shared verbatim (they only see cbins),
// while the histogram and placement passes clamp light bucket ids to
// the catch-all bin.
func (pl *plan) dovetailScatterBody() error {
	nb := pl.cbins
	pl.hist = pl.ws.getHist(pl.cplan.nblocks * nb)

	if err := pl.parFor(pl.cplan.nblocks, 1, (*plan).dovetailHistChunk); err != nil {
		return err
	}

	pl.counts = grow(&pl.ws.counts, nb)
	pl.cbase = grow(&pl.ws.cbase, nb)
	pl.parForNoCtx(nb, 512, (*plan).countingTotalsChunk)
	copy(pl.cbase, pl.counts)
	pl.placedTotal = int(prim.ExclusiveScan(1, pl.cbase))
	pl.parForNoCtx(nb, 512, (*plan).countingCursorChunk)

	if pl.cplan.staged {
		pl.ws.ensureStages(pl.procs, nb)
	}
	return pl.parFor(pl.cplan.nblocks, 1, (*plan).dovetailPassChunk)
}

func (pl *plan) dovetailHistChunk(blo, bhi int) {
	nb := pl.cbins
	catchAll := int64(pl.firstLight)
	var bids [probeBatch]int64
	var heavy [probeBatch]bool
	for blk := blo; blk < bhi; blk++ {
		h := pl.hist[blk*nb : (blk+1)*nb]
		lo, hi := blk*pl.cplan.grain, min((blk+1)*pl.cplan.grain, pl.n)
		for base := lo; base < hi; base += probeBatch {
			m := min(probeBatch, hi-base)
			pl.bucketOfBatch(base, m, &bids, &heavy)
			for u := 0; u < m; u++ {
				// Heavy ids are < firstLight, light ids >= firstLight:
				// the clamp folds every light bucket into the catch-all.
				h[min(bids[u], catchAll)]++
			}
		}
	}
}

func (pl *plan) dovetailPassChunk(blo, bhi int) {
	nb := pl.cbins
	catchAll := int64(pl.firstLight)
	var nf int64
	var bids [probeBatch]int64
	var heavy [probeBatch]bool
	for blk := blo; blk < bhi; blk++ {
		offs := pl.hist[blk*nb : (blk+1)*nb]
		lo, hi := blk*pl.cplan.grain, min((blk+1)*pl.cplan.grain, pl.n)
		if !pl.cplan.staged || fault.Should(fault.StageFlush) {
			for base := lo; base < hi; base += probeBatch {
				m := min(probeBatch, hi-base)
				pl.bucketOfBatch(base, m, &bids, &heavy)
				for u := 0; u < m; u++ {
					bid := min(bids[u], catchAll)
					pl.out[offs[bid]] = pl.a[base+u]
					offs[bid]++
				}
			}
			continue
		}
		slot := pl.ws.acquireStage()
		buf := pl.ws.stageBuf[slot*nb*countingStageSlots : (slot+1)*nb*countingStageSlots]
		cnt := pl.ws.stageCnt[slot*nb : (slot+1)*nb]
		for base := lo; base < hi; base += probeBatch {
			m := min(probeBatch, hi-base)
			pl.bucketOfBatch(base, m, &bids, &heavy)
			for u := 0; u < m; u++ {
				r := pl.a[base+u]
				bid := min(bids[u], catchAll)
				c := cnt[bid]
				buf[int(bid)*countingStageSlots+int(c)] = r
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

// localSort groups the light region with the dovetail radix recursion
// (Phase 4; span kernel "radix") — the recursion is the local sort. The
// recursion's per-node routing counters merge into Stats.PlannerRoutes
// here.
func (dovetailStage) localSort(pl *plan) error {
	return pl.tr.labeledPhase(pl, "localsort", (*plan).dovetailLocalSortBody)
}

func (pl *plan) dovetailLocalSortBody() error {
	pl.stats.LocalSortRanges = 0
	if pl.numHeavy == 0 {
		// The split placed nothing: the recursion's top pass reads the
		// input straight into the radix scratch, and its children group
		// into the output.
		scratch := grow(&pl.ws.rxScratch, pl.n)
		if err := pl.ws.rxTables.SemisortFrom(pl.ctx, pl.procs, pl.a, pl.out, scratch, &pl.dov); err != nil {
			return err
		}
	} else if light := pl.out[pl.heavyEnd:]; len(light) > 1 {
		scratch := grow(&pl.ws.rxScratch, len(light))
		if err := pl.ws.rxTables.Semisort(pl.ctx, pl.procs, light, scratch, &pl.dov); err != nil {
			return err
		}
	}
	pl.stats.PlannerRoutes.RadixNodes += pl.dov.RadixNodes
	pl.stats.PlannerRoutes.DovetailNodes += pl.dov.DovetailNodes
	pl.stats.PlannerRoutes.HeavyKeysDovetailed += pl.dov.HeavyKeysPlaced
	return nil
}

// pack is the counting path's no-op invariant check: the split already
// packed, and the radix recursion permuted the light region in place.
func (dovetailStage) pack(pl *plan) error {
	if pl.placedTotal != pl.n {
		return fmt.Errorf("semisort internal error: dovetail split placed %d of %d records", pl.placedTotal, pl.n)
	}
	return nil
}
