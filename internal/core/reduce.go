// Fused collect-reduce (ROADMAP item 1; the "flexible interface" the
// 2023 semisort follow-up, arXiv:2304.10078, makes its headline):
// aggregate during the pipeline instead of after it. A plain semisort
// materializes fully grouped records and leaves the caller to fold them —
// one extra full write+read of the dataset. ReduceShared pushes the fold
// into the phases instead:
//
//   - Heavy keys never occupy scatter slots at all. Each worker folds the
//     heavy records it encounters into a private accumulator cell (one
//     cell per heavy bucket per worker, no contention, no atomics); the
//     pack phase merges the per-worker cells once with MergeFunc.
//
//   - Light buckets reduce in-arena during Phase 4: the arena's naming
//     table (a flat open-addressing table, the naming problem of the
//     Rajasekaran–Reif local semisort) assigns each distinct key a dense
//     label and folds values as it names, so a light bucket of k records
//     with g groups writes g records instead of sorting and packing k.
//
//   - On the counting strategy, Histogram (FoldFunc == count) reuses the
//     pass-1 histogram for the heavy counts: heavy records are neither
//     staged nor folded — their multiplicity already exists — so a heavy-
//     duplicate histogram classifies each heavy record exactly once (in
//     pass 1; pass 2 reads its bucket id from the column) and
//     materializes nothing.
//
// The fused path shares the Las Vegas ladder with the plain pipeline
// (semisortInto): a bucket overflow clears the accumulator cells on retry
// (ensureReduceState), so no record is ever folded twice, and ladder
// exhaustion degrades to the sequential fallback followed by a run-walk
// fold (reduceRuns).
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/hash"
	"repro/internal/prim"
	"repro/internal/rec"
)

// FoldFunc folds one record's value into a group accumulator. rep is the
// Value of the first record the accumulator saw (its representative; on
// the very first fold rep == value), which lets callers that encode
// out-of-band state in Value (the generic front-end) detect 64-bit key
// collisions without a second pass. Fold runs concurrently on pipeline
// workers, one accumulator per goroutine at a time; it must not retain
// references past the call.
type FoldFunc func(acc, rep, value uint64) uint64

// MergeFunc combines two partial accumulators of one group produced by
// different workers, returning the merged accumulator (the merged
// representative is repA). Merge order across workers is scheduling-
// dependent on every strategy, so Fold/Merge must describe a commutative
// monoid for the result to be well-defined; see docs/AGGREGATION.md.
type MergeFunc func(accA, repA, accB, repB uint64) uint64

// A ReduceSpec describes one fused reduction. Either set Histogram (Fold
// and Merge are then ignored and the reduction counts multiplicities), or
// provide both Fold and Merge plus the fold's Identity.
type ReduceSpec struct {
	// Identity is the initial accumulator for every group.
	Identity uint64
	Fold     FoldFunc
	Merge    MergeFunc
	// Reset, when non-nil, is called once per Las Vegas attempt before
	// any Fold (and once before the fallback's fold), so callers keeping
	// per-attempt state behind the accumulators (the generic front-end's
	// cell slab) can discard partial folds from an overflowed attempt.
	Reset func()
	// Histogram requests a pure multiplicity count (output Value = group
	// size). On the counting strategy the heavy counts come straight from
	// the scatter's pass-1 histogram and heavy records skip the fold
	// entirely.
	Histogram bool
}

func histFold(acc, _, _ uint64) uint64   { return acc + 1 }
func histMerge(a, _, b, _ uint64) uint64 { return a + b }

// ReduceShared semisort-reduces a through ws: the output holds one record
// per distinct key — Key the group's key, Value its final accumulator —
// in the same group order a plain semisort would emit groups (heavy
// buckets first, then light groups in first-appearance-per-bucket order).
// reps parallels out with one original record Value per group (the
// group's representative). Both slices are workspace-owned, valid until
// the next call through ws. The input is never modified.
//
// Reduce forces ProbeLinear: the alternative probe kinds parameterize
// heavy-record placement, and the fused path never places heavy records.
func ReduceShared(ws *Workspace, a []rec.Record, cfg *Config, sp ReduceSpec) (out []rec.Record, reps []uint64, stats Stats, err error) {
	if ws == nil {
		ws = &Workspace{}
	}
	if sp.Histogram {
		sp.Fold, sp.Merge = histFold, histMerge
	} else if sp.Fold == nil || sp.Merge == nil {
		return nil, nil, Stats{}, errors.New("semisort: reduce spec needs Fold and Merge (or Histogram)")
	}
	var c Config
	if cfg != nil {
		c = *cfg
	}
	c.Probe = ProbeLinear
	// The spec lives in the workspace for the duration so storing it in
	// the plan does not heap-allocate a copy per call; it is dropped
	// before returning so a retained workspace never pins the closures.
	ws.redSpec = sp
	out, reps, stats, err = semisortInto(ws, ws.out, a, &c, true, &ws.redSpec)
	ws.redSpec = ReduceSpec{}
	return out, reps, stats, err
}

// HistogramShared is ReduceShared counting multiplicities: out[i].Value is
// the number of input records with key out[i].Key.
func HistogramShared(ws *Workspace, a []rec.Record, cfg *Config) ([]rec.Record, []uint64, Stats, error) {
	return ReduceShared(ws, a, cfg, ReduceSpec{Histogram: true})
}

// reduceRuns folds the groups of a key-sorted record slice sequentially
// (the fused path's fallback arm): equal-key runs collapse in place to
// one {key, accumulator} record each. The in-place prefix write is safe
// because the write cursor never passes the read cursor.
func reduceRuns(ws *Workspace, sorted []rec.Record, sp *ReduceSpec) ([]rec.Record, []uint64) {
	if sp.Reset != nil {
		sp.Reset()
	}
	n := len(sorted)
	reps := grow(&ws.redReps, n)
	w := 0
	for i := 0; i < n; {
		k := sorted[i].Key
		rep := sorted[i].Value
		acc := sp.Identity
		j := i
		for ; j < n && sorted[j].Key == k; j++ {
			acc = sp.Fold(acc, rep, sorted[j].Value)
		}
		sorted[w] = rec.Record{Key: k, Value: acc}
		reps[w] = rep
		w++
		i = j
	}
	return sorted[:w], reps[:w]
}

// ensureReduceState sizes the per-worker heavy accumulator cells for the
// attempt and clears their used flags — the clear is what makes the Las
// Vegas retry safe: an overflowed attempt's partial folds are abandoned
// wholesale, never merged, so no record double-counts (reduce_test.go
// pins this under fault injection). Called from allocatePhase once the
// heavy bucket count is known.
func (pl *plan) ensureReduceState() {
	ws := pl.ws
	pl.redCells = pl.firstLight
	pl.redSlots = pl.procs
	need := pl.redSlots * pl.redCells
	pl.redUsed = growClear(&ws.redUsed, need)
	pl.redAccs = grow(&ws.redAccs, need)
	pl.redCellReps = grow(&ws.redCellReps, need)
	if ws.redFree == nil || cap(ws.redFree) < pl.redSlots {
		ws.redFree = make(chan int, pl.redSlots)
	}
	for len(ws.redFree) > 0 {
		<-ws.redFree
	}
	for s := 0; s < pl.redSlots; s++ {
		ws.redFree <- s
	}
	if pl.red.Reset != nil {
		pl.red.Reset()
	}
}

// An lsArena is one worker's fused-reduce scratch (reduceSeg): the naming
// table and the per-distinct-key buffers. Arenas live in the Workspace
// and are handed to workers through a buffered-channel free-list (the
// same pattern as the counting scatter's staging slots), one acquire per
// size-aware range; each buffer grows to the largest segment its worker
// has seen and is then reused, so a warm workspace reduces without
// allocating.
type lsArena struct {
	// Flat open-addressing naming table: tabLabs stores label+1 so the
	// zero value means vacant and reuse is a memclr of the sized view;
	// any uint64 — including 0 and ^0 — is a valid key.
	tabKeys []uint64
	tabLabs []int32
	// Per-distinct-key accumulators, representatives and keys, indexed
	// by naming-table label.
	redAccs []uint64
	redReps []uint64
	redKeys []uint64
}

// reduceSeg folds one light bucket's records into one record per distinct
// key, in place: seg[:m] receives {key, accumulator} records in first-
// appearance order and reps[:m] each group's representative Value, where
// m (returned) is the number of distinct keys. The naming loop is a flat
// open-addressing table assigning dense labels at load ≤ 1/2, and each
// label's payload is an accumulator folded on the spot instead of a
// record list to sort.
func (ar *lsArena) reduceSeg(sp *ReduceSpec, seg []rec.Record, reps []uint64) int {
	n := len(seg)
	if n == 0 {
		return 0
	}
	accs := grow(&ar.redAccs, n)
	rrep := grow(&ar.redReps, n)
	keyOf := grow(&ar.redKeys, n)
	size := 4
	if n > 2 {
		size = 1 << uint(bits.Len(uint(2*n-1)))
	}
	if cap(ar.tabKeys) < size {
		ar.tabKeys = make([]uint64, size)
		ar.tabLabs = make([]int32, size)
	}
	keys := ar.tabKeys[:size]
	labs := ar.tabLabs[:size]
	clear(labs)
	mask := uint64(size - 1)
	var m int32
	for _, r := range seg {
		h := hash.Fmix64(r.Key) & mask
		var l int32
		for {
			lv := labs[h]
			if lv == 0 {
				keys[h] = r.Key
				m++
				labs[h] = m
				l = m - 1
				keyOf[l] = r.Key
				accs[l] = sp.Identity
				rrep[l] = r.Value
				break
			}
			if keys[h] == r.Key {
				l = lv - 1
				break
			}
			h = (h + 1) & mask
		}
		accs[l] = sp.Fold(accs[l], rrep[l], r.Value)
	}
	for l := int32(0); l < m; l++ {
		seg[l] = rec.Record{Key: keyOf[l], Value: accs[l]}
		reps[l] = rrep[l]
	}
	return int(m)
}

// ---------------------------------------------------------------------------
// Probing strategy, fused arms.

func (pl *plan) probeReduceScatterBody() error {
	return pl.parFor(pl.n, 8192, (*plan).probeReduceScatterChunk)
}

// probeReduceScatterChunk is probeScatterChunk with the heavy branch
// folding into this worker's accumulator cells instead of placing: heavy
// buckets have no slots under reduce (probingStage.allocate sizes them to
// zero).
func (pl *plan) probeReduceScatterChunk(lo, hi int) {
	if pl.overflow.Load() {
		return
	}
	if fault.Should(fault.ProbeSaturation) {
		bid, _ := pl.bucketOf(pl.a[lo])
		pl.recordOverflow(bid)
		return
	}
	exact := pl.cfg.ExactBucketSizes
	sp := pl.red
	slot := pl.ws.acquireRed()
	base0 := slot * pl.redCells
	accs := pl.redAccs[base0 : base0+pl.redCells]
	crep := pl.redCellReps[base0 : base0+pl.redCells]
	used := pl.redUsed[base0 : base0+pl.redCells]
	localHeavy := int64(0)
	localMaxRun := int64(0)
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
				c := int(bid)
				if used[c] == 0 {
					used[c] = 1
					crep[c] = r.Value
					accs[c] = sp.Identity
				}
				accs[c] = sp.Fold(accs[c], crep[c], r.Value)
				continue
			}
			bk := pl.buckets[bid]
			pos := bucketPos(pl.scatterRNG.Rand(uint64(i)), bk.sz, exact)
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
				pos++
				if pos == bk.sz {
					pos = 0
				}
			}
			if !placed {
				pl.ws.releaseRed(slot)
				pl.recordOverflow(bid)
				return
			}
		}
	}
	pl.ws.releaseRed(slot)
	pl.heavyPlaced.Add(localHeavy)
	for {
		cur := pl.maxCluster.Load()
		if localMaxRun <= cur || pl.maxCluster.CompareAndSwap(cur, localMaxRun) {
			break
		}
	}
}

func (pl *plan) probeReduceBody() error {
	return pl.parForEach(pl.lsRanges, 1, (*plan).probeReduceRange)
}

// probeReduceRange compacts each light bucket's occupied slots to the
// bucket prefix (as the plain Phase 4 does) and then reduces the prefix
// in place, leaving the bucket's groups at slots[bk.off:] and their
// representatives at redStageReps[bk.off:].
func (pl *plan) probeReduceRange(ri int) {
	slot := pl.ws.acquireArena()
	ar := &pl.ws.lsArenas[slot]
	sp := pl.red
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
		cnt := int64(w - lo)
		pl.lightCnt[j] = int32(cnt)
		m := ar.reduceSeg(sp, pl.slots[lo:lo+cnt], pl.redStageReps[lo:lo+cnt])
		pl.redDistinct[j] = int32(m)
	}
	pl.ws.releaseArena(slot)
}

func (pl *plan) packReduceProbing() error {
	var lightRecs int64
	for j := 0; j < pl.numLightMerged; j++ {
		lightRecs += int64(pl.lightCnt[j])
	}
	if got := pl.heavyPlaced.Load() + lightRecs; got != int64(pl.n) {
		return fmt.Errorf("semisort internal error: fused reduce folded %d of %d records", got, pl.n)
	}
	return pl.packReduceCommon((*plan).packReduceLightProbe)
}

func (pl *plan) packReduceLightProbe(j int) {
	m := int(pl.redDistinct[j])
	if m == 0 {
		return
	}
	bk := pl.buckets[pl.firstLight+j]
	dst := pl.firstLight + int(pl.redOff[j])
	copy(pl.out[dst:dst+m], pl.slots[bk.off:bk.off+int64(m)])
	copy(pl.reps[dst:dst+m], pl.redStageReps[bk.off:bk.off+int64(m)])
}

// ---------------------------------------------------------------------------
// Counting strategy, fused arms.

// countingReduceScatterBody is countingScatterBody with two twists: the
// bucket base scan zeroes the heavy prefix (heavy records fold into cells
// instead of being placed, so light buckets pack densely into the reduce
// staging area), and pass 2 writes light records to the staging area
// directly — the write-combining staging buffers batch stores into the
// output array, which the fused path does not produce until pack. Pass 2
// reads pass 1's bucket-id column like the plain arm: an id below
// firstLight is a heavy bucket.
func (pl *plan) countingReduceScatterBody() error {
	nb := pl.cbins
	pl.hist = pl.ws.getHist(pl.cplan.nblocks * nb)
	pl.bidCol = grow(&pl.ws.bidCol, pl.n)
	if err := pl.parFor(pl.cplan.nblocks, 1, (*plan).countingHistChunk); err != nil {
		return err
	}
	pl.counts = grow(&pl.ws.counts, nb)
	pl.cbase = grow(&pl.ws.cbase, nb)
	pl.parForNoCtx(nb, 512, (*plan).countingTotalsChunk)
	copy(pl.cbase, pl.counts)
	heavyRecs := 0
	for b := 0; b < pl.firstLight; b++ {
		heavyRecs += int(pl.cbase[b])
		pl.cbase[b] = 0
	}
	pl.redHeavyRecs = heavyRecs
	pl.placedTotal = int(prim.ExclusiveScan(1, pl.cbase))
	pl.parForNoCtx(nb, 512, (*plan).countingCursorChunk)
	pl.redStage = grow(&pl.ws.redStage, pl.placedTotal)
	pl.redStageReps = grow(&pl.ws.redStageReps, pl.placedTotal)
	return pl.parFor(pl.cplan.nblocks, 1, (*plan).countingReducePassChunk)
}

func (pl *plan) countingReducePassChunk(blo, bhi int) {
	nb := pl.cbins
	sp := pl.red
	histOnly := sp.Histogram
	slot := pl.ws.acquireRed()
	base0 := slot * pl.redCells
	accs := pl.redAccs[base0 : base0+pl.redCells]
	crep := pl.redCellReps[base0 : base0+pl.redCells]
	used := pl.redUsed[base0 : base0+pl.redCells]
	firstLight := uint32(pl.firstLight)
	for blk := blo; blk < bhi; blk++ {
		offs := pl.hist[blk*nb : (blk+1)*nb]
		lo, hi := blk*pl.cplan.grain, min((blk+1)*pl.cplan.grain, pl.n)
		src := pl.a[lo:hi]
		for i, bid := range pl.bidCol[lo:hi] {
			r := src[i]
			if bid < firstLight {
				c := int(bid)
				if histOnly {
					// The count is already in pass 1's histogram; only a
					// representative is still needed.
					if used[c] == 0 {
						used[c], crep[c] = 1, r.Value
					}
					continue
				}
				if used[c] == 0 {
					used[c] = 1
					crep[c] = r.Value
					accs[c] = sp.Identity
				}
				accs[c] = sp.Fold(accs[c], crep[c], r.Value)
				continue
			}
			pl.redStage[offs[bid]] = r
			offs[bid]++
		}
	}
	pl.ws.releaseRed(slot)
}

func (pl *plan) countingReduceBody() error {
	return pl.parForEach(pl.lsRanges, 1, (*plan).countingReduceRange)
}

func (pl *plan) countingReduceRange(ri int) {
	slot := pl.ws.acquireArena()
	ar := &pl.ws.lsArenas[slot]
	sp := pl.red
	for j := int(pl.lsBounds[ri]); j < int(pl.lsBounds[ri+1]); j++ {
		b := pl.firstLight + j
		lo := int(pl.cbase[b])
		cnt := int(pl.counts[b])
		m := ar.reduceSeg(sp, pl.redStage[lo:lo+cnt], pl.redStageReps[lo:lo+cnt])
		pl.redDistinct[j] = int32(m)
	}
	pl.ws.releaseArena(slot)
}

func (pl *plan) packReduceCounting() error {
	if got := pl.redHeavyRecs + pl.placedTotal; got != pl.n {
		return fmt.Errorf("semisort internal error: fused reduce folded %d of %d records", got, pl.n)
	}
	return pl.packReduceCommon((*plan).packReduceLightCounting)
}

func (pl *plan) packReduceLightCounting(j int) {
	m := int(pl.redDistinct[j])
	if m == 0 {
		return
	}
	b := pl.firstLight + j
	lo := int(pl.cbase[b])
	dst := pl.firstLight + int(pl.redOff[j])
	copy(pl.out[dst:dst+m], pl.redStage[lo:lo+m])
	copy(pl.reps[dst:dst+m], pl.redStageReps[lo:lo+m])
}

// ---------------------------------------------------------------------------
// Shared fused pack.

// packReduceCommon finishes the fused reduce: merge each heavy bucket's
// per-worker cells into one output record, then compact the light
// buckets' reduced prefixes behind them (an exclusive scan over per-
// bucket group counts gives the offsets). Group order is deterministic
// given where the groups landed: heavy buckets in sample-run order, then
// light buckets in hash order, each bucket's groups in the order the
// reduce stage saw them.
func (pl *plan) packReduceCommon(lightCopy func(*plan, int)) error {
	pl.redOff = grow(&pl.ws.redOff, pl.numLightMerged)
	copy(pl.redOff, pl.redDistinct)
	lightGroups := prim.ExclusiveScan(1, pl.redOff)
	h := pl.firstLight
	total := h + int(lightGroups)
	// Size the output and representatives to the groups, not the records:
	// a duplicate-heavy reduce writes a small fraction of n.
	pl.ensureOutN(total)
	pl.reps = grow(&pl.ws.redReps, total)
	pl.redBadHeavy.Store(0)
	pl.parForEachNoCtx(h, 64, (*plan).packReduceHeavyCell)
	if bad := pl.redBadHeavy.Load(); bad != 0 {
		// Every heavy key comes from the sample, so every heavy bucket
		// saw at least one record; an empty one is a classifier bug.
		return fmt.Errorf("semisort internal error: %d heavy buckets saw no records in the fused reduce", bad)
	}
	pl.parForEachNoCtx(pl.numLightMerged, 64, lightCopy)
	pl.stats.ReducedGroups = total
	return nil
}

// packReduceHeavyCell merges heavy bucket hb's per-worker cells (slot-
// ascending order — one of the scheduling-dependent orders that make the
// commutativity requirement real) and writes the group's output record.
func (pl *plan) packReduceHeavyCell(hb int) {
	sp := pl.red
	var acc, rp uint64
	found := false
	if pl.strat == ScatterCounting && sp.Histogram {
		// The count was never folded: it is pass 1's per-bucket total.
		acc = uint64(pl.counts[hb])
		for s := 0; s < pl.redSlots; s++ {
			c := s*pl.redCells + hb
			if pl.redUsed[c] != 0 {
				rp = pl.redCellReps[c]
				found = true
				break
			}
		}
		found = found && acc > 0
	} else {
		for s := 0; s < pl.redSlots; s++ {
			c := s*pl.redCells + hb
			if pl.redUsed[c] == 0 {
				continue
			}
			if !found {
				acc, rp, found = pl.redAccs[c], pl.redCellReps[c], true
			} else {
				acc = sp.Merge(acc, rp, pl.redAccs[c], pl.redCellReps[c])
			}
		}
	}
	if !found {
		pl.redBadHeavy.Add(1)
		return
	}
	pl.out[hb] = rec.Record{Key: pl.heavyRuns[hb].key, Value: acc}
	pl.reps[hb] = rp
}
