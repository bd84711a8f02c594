// Fused collect-reduce (the "flexible interface" the 2023 semisort
// follow-up, arXiv:2304.10078, makes its headline): aggregate during the
// pipeline instead of after it. A plain semisort materializes fully
// grouped records and leaves the caller to fold them — one extra full
// write+read of the dataset. ReduceShared pushes the fold into the
// phases of the counting scatter (scatter_counting.go), the one route
// every fused call takes:
//
//   - Heavy keys never occupy output positions at all. Each worker folds
//     the heavy records it encounters into a private accumulator cell
//     (one cell per heavy bucket per worker, no contention, no atomics);
//     the pack phase merges the per-worker cells once with MergeFunc.
//     Each cell also keeps the lowest input block that fed its
//     representative, so a heavy group's representative is its first
//     input record whatever the scheduling, as a light group's is.
//
//   - Light buckets reduce in-arena during Phase 4: the arena's naming
//     table (a flat open-addressing table, the naming problem of the
//     Rajasekaran–Reif local semisort) assigns each distinct key a dense
//     label and folds values as it names, so a light bucket of k records
//     with g groups writes g records instead of sorting and packing k.
//
//   - Histogram (FoldFunc == count) reuses the pass-1 histogram for the
//     heavy counts: heavy records are not folded — their multiplicity
//     already exists — so a heavy-duplicate histogram classifies each
//     heavy record exactly once (in pass 1; pass 2 reads its bucket id
//     from the column) and materializes nothing.
//
// The counting scatter places at exact offsets and cannot overflow, so a
// fused call runs one attempt and never folds a record twice. Its only
// degradation, the Config.MaxSlotBytes cap, fires in allocate or between
// the two counting passes, before any fold; the sequential fallback then
// sorts and folds each run once (reduceRuns).
package core

import (
	"errors"
	"fmt"
	"math/bits"

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
	// Histogram requests a pure multiplicity count (output Value = group
	// size). The heavy counts come straight from the counting scatter's
	// pass-1 histogram and heavy records skip the fold entirely.
	Histogram bool
}

func histFold(acc, _, _ uint64) uint64   { return acc + 1 }
func histMerge(a, _, b, _ uint64) uint64 { return a + b }

// ReduceShared semisort-reduces a through ws: the output holds one record
// per distinct key — Key the group's key, Value its final accumulator —
// heavy groups first, then light groups in first-appearance-per-bucket
// order. reps parallels out with one original record Value per group
// (the group's representative: its first input record's Value). Both
// slices are workspace-owned, valid until the next call through ws. The
// input is never modified. Every fused call runs the counting scatter in
// one attempt; Config.ScatterStrategy does not apply.
func ReduceShared(ws *Workspace, a []rec.Record, cfg *Config, sp ReduceSpec) (out []rec.Record, reps []uint64, stats Stats, err error) {
	if ws == nil {
		ws = &Workspace{}
	}
	if sp.Histogram {
		sp.Fold, sp.Merge = histFold, histMerge
	} else if sp.Fold == nil || sp.Merge == nil {
		return nil, nil, Stats{}, errors.New("semisort: reduce spec needs Fold and Merge (or Histogram)")
	}
	// The spec lives in the workspace for the duration so storing it in
	// the plan does not heap-allocate a copy per call; it is dropped
	// before returning so a retained workspace never pins the closures.
	ws.redSpec = sp
	out, reps, stats, err = semisortInto(ws, ws.out, a, cfg, true, &ws.redSpec)
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
// attempt and clears their block tags (0 marks an unused cell). Called
// from the counting stage's allocate once the heavy bucket count is
// known and the scratch cap has passed.
func (pl *plan) ensureReduceState() {
	ws := pl.ws
	pl.redCells = pl.firstLight
	pl.redSlots = pl.procs
	need := pl.redSlots * pl.redCells
	pl.redRepBlk = growClear(&ws.redRepBlk, need)
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
}

// An lsArena is one worker's fused-reduce scratch (reduceSeg): the naming
// table and the per-distinct-key buffers. Arenas live in the Workspace
// and are handed to workers through a buffered-channel free-list (the
// same pattern as the heavy cell rows), one acquire per
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

// tableSlots is the naming-table size reduceSeg uses for an n-record
// segment: a power of two at least 2n (load ≤ 1/2), and at least 4.
func tableSlots(n int) int {
	if n <= 2 {
		return 4
	}
	return 1 << uint(bits.Len(uint(2*n-1)))
}

// arenaBytes is what one arena grows to for an n-record segment: the
// naming table (an 8-byte key and a 4-byte label per slot) and three
// n-entry uint64 buffers. countingScratch prices it.
func arenaBytes(n int) int64 {
	if n == 0 {
		return 0
	}
	return int64(tableSlots(n))*12 + int64(n)*24
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
	size := tableSlots(n)
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
// The counting stage's fused bodies (scatter_counting.go).

// countingReduceScatterBody runs both counting passes and the cursor
// conversion between them. The bucket base scan zeroes the heavy prefix
// (heavy records fold into cells instead of being placed, so light
// buckets pack densely into the reduce staging area), and pass 2 writes
// light records to the staging area directly. Pass 2 reads pass 1's
// bucket-id column: an id below firstLight is a heavy bucket.
func (pl *plan) countingReduceScatterBody() error {
	nb := pl.cbins
	pl.hist = pl.ws.getHist(pl.cblocks * nb)
	pl.bidCol = grow(&pl.ws.bidCol, pl.n)
	if err := pl.parFor(pl.cblocks, 1, (*plan).countingHistChunk); err != nil {
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
	pl.stats.HeavyRecords = heavyRecs
	pl.placedTotal = int(prim.ExclusiveScan(1, pl.cbase))
	maxBucket := int32(0)
	for _, c := range pl.counts[pl.firstLight:] {
		maxBucket = max(maxBucket, c)
	}
	if err := pl.capScratch("counting scatter", pl.countingScratch(pl.placedTotal, int(maxBucket))); err != nil {
		return err // before pass 2: nothing is folded yet
	}
	pl.parForNoCtx(nb, 512, (*plan).countingCursorChunk)
	pl.redStage = grow(&pl.ws.redStage, pl.placedTotal)
	pl.redStageReps = grow(&pl.ws.redStageReps, pl.placedTotal)
	return pl.parFor(pl.cblocks, 1, (*plan).countingReducePassChunk)
}

// countingReducePassChunk is pass 2 over blocks [blo, bhi). A heavy
// record folds into this worker's cell; the cell keeps the
// representative from the lowest block that fed it (tagged block+1, so 0
// means unused). Blocks ascend within a chunk and records within a
// block, so the first record of a lower block replaces the rep and the
// merged cell's rep is the group's first input record.
func (pl *plan) countingReducePassChunk(blo, bhi int) {
	nb := pl.cbins
	sp := pl.red
	histOnly := sp.Histogram
	slot := pl.ws.acquireRed()
	base0 := slot * pl.redCells
	accs := pl.redAccs[base0 : base0+pl.redCells]
	crep := pl.redCellReps[base0 : base0+pl.redCells]
	cblk := pl.redRepBlk[base0 : base0+pl.redCells]
	firstLight := uint32(pl.firstLight)
	for blk := blo; blk < bhi; blk++ {
		offs := pl.hist[blk*nb : (blk+1)*nb]
		lo, hi := blk*pl.cgrain, min((blk+1)*pl.cgrain, pl.n)
		src := pl.a[lo:hi]
		tag := int32(blk + 1)
		for i, bid := range pl.bidCol[lo:hi] {
			r := src[i]
			if bid < firstLight {
				c := int(bid)
				switch t := cblk[c]; {
				case t == 0:
					cblk[c], crep[c], accs[c] = tag, r.Value, sp.Identity
				case tag < t:
					cblk[c], crep[c] = tag, r.Value
				}
				if !histOnly {
					// A Histogram's count is already in pass 1's histogram;
					// only a representative is still needed.
					accs[c] = sp.Fold(accs[c], crep[c], r.Value)
				}
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

// packReduceCounting finishes the fused reduce: merge each heavy bucket's
// per-worker cells into one output record, then compact the light
// buckets' reduced prefixes behind them (an exclusive scan over per-
// bucket group counts gives the offsets). Group order is deterministic:
// heavy buckets in sample-run order, then light buckets in hash order,
// each bucket's groups in first-appearance order.
func (pl *plan) packReduceCounting() error {
	if got := pl.stats.HeavyRecords + pl.placedTotal; got != pl.n {
		return fmt.Errorf("semisort internal error: fused reduce folded %d of %d records", got, pl.n)
	}
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
	pl.parForEachNoCtx(pl.numLightMerged, 64, (*plan).packReduceLightCounting)
	pl.stats.ReducedGroups = total
	return nil
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

// packReduceHeavyCell merges heavy bucket hb's per-worker cells in slot-
// ascending order — scheduling-dependent, which is what makes the
// commutativity requirement real — and writes the group's output record.
// The representative is the one from the lowest block, whichever slot
// holds it.
func (pl *plan) packReduceHeavyCell(hb int) {
	sp := pl.red
	var acc, first, rp uint64
	var best int32
	for s := 0; s < pl.redSlots; s++ {
		c := s*pl.redCells + hb
		t := pl.redRepBlk[c]
		switch {
		case t == 0:
			continue
		case best == 0:
			acc, first = pl.redAccs[c], pl.redCellReps[c]
		case !sp.Histogram:
			acc = sp.Merge(acc, first, pl.redAccs[c], pl.redCellReps[c])
		}
		if best == 0 || t < best {
			best, rp = t, pl.redCellReps[c]
		}
	}
	if best == 0 {
		pl.redBadHeavy.Add(1)
		return
	}
	if sp.Histogram {
		// The count was never folded: it is pass 1's per-bucket total.
		acc = uint64(pl.counts[hb])
	}
	pl.out[hb] = rec.Record{Key: pl.heavyRuns[hb].key, Value: acc}
	pl.reps[hb] = rp
}
