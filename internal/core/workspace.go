package core

import (
	"repro/internal/hashtable"
	"repro/internal/rec"
	"repro/internal/sortint"
)

// A Workspace owns every per-attempt buffer of the pipeline — sample
// arrays, run/bucket descriptors, light histograms, slot and occupancy
// arrays, the counting scatter's histograms and staging arena, the
// heavy-key hash table, the retry boost map, and (for SemisortShared) a
// retained output buffer — so repeated semisorts reuse memory instead of
// reallocating ~4-6n bytes per call. In steady state a call through a
// warm Workspace allocates nothing beyond the returned slice (and nothing
// at all via SemisortShared) when Procs == 1; parallel dispatch costs a
// few goroutine closures per phase.
//
// A zero Workspace is ready to use; it grows on demand and is NOT safe
// for concurrent use by multiple semisorts. Buffers only grow unless
// Config.MaxRetainedBytes caps them or Release drops them.
type Workspace struct {
	// Phase 1: sampling (the cumulative adaptive sample and its sort
	// scratch, plus the estimator loop's per-range state; see sample.go
	// and estimator.go).
	sample        []uint64
	sampleScratch []uint64
	smplHist      []int32   // kept samples per hash range (cumulative)
	smplCnt       []int32   // per-chunk kept counts, then write offsets
	smplThr       []int32   // per-range heavy thresholds (sizeModel view)
	smplDens      []float64 // per-range cumulative sampling density
	smplRate      []float64 // per-range records-per-sample (sizeModel view)
	smplOver      []float64 // per-range absolute overshoot (round selection)
	smplSel       []uint8   // per-range selection flags for the next round

	// Phase 2: classification and bucket construction.
	runStarts     []int32 // offsets of distinct-key runs in the sorted sample
	runCounts     []int32 // per-block run counts (parallel run-start pass)
	blockHeavy    []int32 // per-block heavy-run counts, then offsets
	heavyRuns     []heavyRun
	lightCounts   []int32
	lightBucketOf []int32
	buckets       []bucket
	table         *hashtable.Table
	boost         map[int32]float64 // bucket id → size multiplier (retry ladder)

	// Phase 3: probing scatter.
	slots []rec.Record
	occ   []uint32

	// Phase 3: counting scatter (histograms + per-worker staging arena;
	// the arena replaces the old package-global sync.Pool).
	hist      []int32
	counts    []int32
	cbase     []int32
	stageBuf  []rec.Record // stageWorkers × nb × countingStageSlots records
	stageCnt  []uint8      // stageWorkers × nb fill counters, all-zero at rest
	stageFree chan int     // free-list of staging slot indices

	// Phase 4, dovetail route: scratch for the radix recursion's
	// out-of-place distribution passes over the light region (one record
	// per light record; priced against Config.MaxSlotBytes by the
	// allocate phase), and the recursion's count tables (per-block
	// histograms and per-worker count stacks, a few hundred KiB at most).
	rxScratch []rec.Record
	rxTables  sortint.DovetailTables

	// Phase 4: per-worker local-sort arenas and the size-aware schedule's
	// prefix-sum/boundary buffers (localsort.go).
	lsArenas []lsArena
	lsFree   chan int
	lsCum    []int64
	lsBounds []int32

	// Phases 4–5: light compaction and packing.
	lightCnt     []int32
	lightOffsets []int32
	packCounts   []int32

	// Fused collect-reduce (reduce.go): per-worker heavy accumulator
	// cells (redAccs/redCellReps/redUsed, handed out through the redFree
	// free-list), the counting path's light staging area (redStage), the
	// per-group representative buffers, and the spec in flight. redSpec
	// is cleared by ReduceShared before returning so a retained workspace
	// never pins the caller's closures.
	redAccs      []uint64
	redCellReps  []uint64
	redUsed      []uint8
	redFree      chan int
	redStage     []rec.Record
	redStageReps []uint64
	redDistinct  []int32
	redOff       []int32
	redReps      []uint64
	redSpec      ReduceSpec

	// Retained output buffer (SemisortShared); overwritten by the next
	// Shared call through this workspace.
	out []rec.Record

	// The per-call execution plan lives here so the steady state does not
	// allocate it (see plan.go).
	plan plan
}

// grow returns buf resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified (callers overwrite).
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growClear is grow with the returned prefix zeroed.
func growClear[T any](buf *[]T, n int) []T {
	b := grow(buf, n)
	clear(b)
	return b
}

// growEmpty ensures capacity for n elements and returns the buffer sliced
// to length zero, for append-style construction within the reserve.
func growEmpty[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, 0, n)
	}
	return (*buf)[:0]
}

// growKeep is grow preserving existing contents across reallocation, for
// buffers built up incrementally (the adaptive sample accumulates keys
// across rounds). Capacity at least doubles so per-round growth
// amortizes; in steady state (capacity already sufficient) it is a
// zero-allocation reslice like grow.
func growKeep[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		c := 2 * cap(*buf)
		if c < n {
			c = n
		}
		nb := make([]T, len(*buf), c)
		copy(nb, *buf)
		*buf = nb
	}
	*buf = (*buf)[:n]
	return *buf
}

// getHist returns a zeroed int32 scratch of length m for the counting
// scatter's per-block histograms.
func (w *Workspace) getHist(m int) []int32 {
	return growClear(&w.hist, m)
}

// getSlots returns a slot array and cleared occupancy flags of length total.
func (w *Workspace) getSlots(total int64) ([]rec.Record, []uint32) {
	if int64(cap(w.slots)) < total {
		w.slots = make([]rec.Record, total)
		w.occ = make([]uint32, total)
		return w.slots, w.occ
	}
	w.slots = w.slots[:total]
	occ := w.occ[:total]
	clear(occ)
	w.occ = occ
	return w.slots, occ
}

// getTable returns an empty heavy-key table sized for capacity keys,
// reusing the retained table when its backing is large enough but not
// absurdly oversized (an 8x-too-big table would make every Reset and
// cache-missed probe pay for a long-gone input).
func (w *Workspace) getTable(capacity int) *hashtable.Table {
	need := 2 * capacity
	if need < 4 {
		need = 4
	}
	if t := w.table; t != nil {
		if c := t.Capacity(); c >= need && c <= 8*need {
			t.Reset()
			return t
		}
	}
	w.table = hashtable.New(capacity)
	return w.table
}

// getBoost returns the retained (cleared) per-bucket boost map for the
// retry ladder.
func (w *Workspace) getBoost() map[int32]float64 {
	if w.boost == nil {
		w.boost = make(map[int32]float64, 8)
	} else {
		clear(w.boost)
	}
	return w.boost
}

// ensureStages sizes the counting scatter's staging arena for `workers`
// concurrent slots of nb buckets each and refills the free-list. The fill
// counters are cleared so an attempt aborted mid-flight (worker panic)
// cannot leak stale partial lines into the next call.
func (w *Workspace) ensureStages(workers, nb int) {
	need := workers * nb
	if cap(w.stageCnt) < need {
		w.stageCnt = make([]uint8, need)
		w.stageBuf = make([]rec.Record, need*countingStageSlots)
	}
	w.stageCnt = w.stageCnt[:need]
	w.stageBuf = w.stageBuf[:need*countingStageSlots]
	clear(w.stageCnt)
	if w.stageFree == nil || cap(w.stageFree) < workers {
		w.stageFree = make(chan int, workers)
	}
	for len(w.stageFree) > 0 {
		<-w.stageFree
	}
	for s := 0; s < workers; s++ {
		w.stageFree <- s
	}
}

// acquireStage blocks until a staging slot is free and claims it. The
// free-list is a buffered channel of ints: channel operations on scalar
// elements do not allocate, and the channel's happens-before edge hands
// the slot's buffers cleanly between workers.
func (w *Workspace) acquireStage() int { return <-w.stageFree }

// releaseStage returns a staging slot to the free-list. The caller must
// have drained the slot's fill counters back to zero.
func (w *Workspace) releaseStage(s int) { w.stageFree <- s }

// ensureArenas sizes the Phase 4 arena pool for `workers` concurrent
// local-sort ranges and refills its free-list. Arenas keep their grown
// buffers across calls (that is the point); only the pool bookkeeping is
// reset here.
func (w *Workspace) ensureArenas(workers int) {
	if cap(w.lsArenas) < workers {
		arenas := make([]lsArena, workers)
		copy(arenas, w.lsArenas)
		w.lsArenas = arenas
	}
	w.lsArenas = w.lsArenas[:cap(w.lsArenas)]
	if w.lsFree == nil || cap(w.lsFree) < workers {
		w.lsFree = make(chan int, workers)
	}
	for len(w.lsFree) > 0 {
		<-w.lsFree
	}
	for s := 0; s < workers; s++ {
		w.lsFree <- s
	}
}

// acquireArena blocks until a Phase 4 arena is free and claims it; same
// buffered-channel free-list pattern as the staging slots (scalar channel
// operations do not allocate, and the channel's happens-before edge hands
// the arena's buffers cleanly between workers).
func (w *Workspace) acquireArena() int { return <-w.lsFree }

// releaseArena returns an arena to the free-list.
func (w *Workspace) releaseArena(s int) { w.lsFree <- s }

// acquireRed claims a row of heavy accumulator cells for one reduce
// chunk; same buffered-channel free-list pattern as the arenas.
func (w *Workspace) acquireRed() int { return <-w.redFree }

// releaseRed returns a cell row to the free-list.
func (w *Workspace) releaseRed(s int) { w.redFree <- s }

// RetainedBytes reports the scratch memory the workspace currently pins,
// the quantity Config.MaxRetainedBytes caps. The heavy-key table and the
// retained Shared output count; the boost map's few entries do not.
func (w *Workspace) RetainedBytes() int64 {
	n := int64(cap(w.sample)+cap(w.sampleScratch)) * 8
	n += int64(cap(w.smplDens)+cap(w.smplRate)+cap(w.smplOver)) * 8
	n += int64(cap(w.smplHist)+cap(w.smplCnt)+cap(w.smplThr)) * 4
	n += int64(cap(w.smplSel))
	n += int64(cap(w.runStarts)+cap(w.runCounts)+cap(w.blockHeavy)+
		cap(w.lightCounts)+cap(w.lightBucketOf)+cap(w.lightCnt)+
		cap(w.lightOffsets)+cap(w.packCounts)+
		cap(w.hist)+cap(w.counts)+cap(w.cbase)) * 4
	n += int64(cap(w.heavyRuns))*16 + int64(cap(w.buckets))*16
	n += int64(cap(w.slots))*16 + int64(cap(w.occ))*4
	n += int64(cap(w.rxScratch))*16 + w.rxTables.RetainedBytes()
	n += int64(cap(w.stageBuf))*16 + int64(cap(w.stageCnt))
	arenas := w.lsArenas[:cap(w.lsArenas)]
	for i := range arenas {
		ar := &arenas[i]
		n += int64(cap(ar.labels)+cap(ar.labScratch)+cap(ar.counts)+
			cap(ar.offs)+cap(ar.tabLabs)) * 4
		n += int64(cap(ar.scratch))*16 + int64(cap(ar.tabKeys))*8
		n += int64(cap(ar.redAccs)+cap(ar.redReps)+cap(ar.redKeys)) * 8
	}
	n += int64(cap(w.lsCum))*8 + int64(cap(w.lsBounds))*4
	n += int64(cap(w.redAccs)+cap(w.redCellReps)+cap(w.redStageReps)+cap(w.redReps)) * 8
	n += int64(cap(w.redUsed)) + int64(cap(w.redStage))*16
	n += int64(cap(w.redDistinct)+cap(w.redOff)) * 4
	n += int64(cap(w.out)) * 16
	if w.table != nil {
		n += int64(w.table.Capacity()) * 16
	}
	return n
}

// Release drops every retained buffer, returning the workspace to its
// zero footprint. The workspace remains usable; the next call regrows
// what it needs.
func (w *Workspace) Release() {
	w.plan.clearRefs()
	w.sample, w.sampleScratch = nil, nil
	w.smplHist, w.smplCnt, w.smplThr = nil, nil, nil
	w.smplDens, w.smplRate, w.smplOver, w.smplSel = nil, nil, nil, nil
	w.runStarts, w.runCounts, w.blockHeavy = nil, nil, nil
	w.heavyRuns, w.lightCounts, w.lightBucketOf = nil, nil, nil
	w.buckets, w.table, w.boost = nil, nil, nil
	w.slots, w.occ, w.rxScratch = nil, nil, nil
	w.rxTables.Release()
	w.hist, w.counts, w.cbase = nil, nil, nil
	w.stageBuf, w.stageCnt, w.stageFree = nil, nil, nil
	w.lsArenas, w.lsFree, w.lsCum, w.lsBounds = nil, nil, nil, nil
	w.lightCnt, w.lightOffsets, w.packCounts = nil, nil, nil
	w.redAccs, w.redCellReps, w.redUsed, w.redFree = nil, nil, nil, nil
	w.redStage, w.redStageReps = nil, nil
	w.redDistinct, w.redOff, w.redReps = nil, nil, nil
	w.redSpec = ReduceSpec{}
	w.out = nil
}

// shrink enforces a retained-bytes cap after a call, dropping buffer
// classes in decreasing typical-size order (slot arrays first — they are
// the ~4-6x multiple of n — then the retained output, scatter scratch,
// and sample arrays) until the total fits. Dropping is all-or-nothing per
// class; the next call regrows exactly what it needs. max <= 0 retains
// everything.
func (w *Workspace) shrink(max int64) {
	if max <= 0 || w.RetainedBytes() <= max {
		return
	}
	w.plan.clearRefs() // the plan aliases the buffers being dropped
	w.slots, w.occ, w.rxScratch = nil, nil, nil
	w.redStage, w.redStageReps = nil, nil
	if w.RetainedBytes() <= max {
		return
	}
	w.out, w.redReps = nil, nil
	if w.RetainedBytes() <= max {
		return
	}
	w.hist, w.stageBuf, w.stageCnt, w.stageFree = nil, nil, nil, nil
	w.rxTables.Release()
	w.lsArenas, w.lsFree, w.lsCum, w.lsBounds = nil, nil, nil, nil
	w.redAccs, w.redCellReps, w.redUsed, w.redFree = nil, nil, nil, nil
	w.redDistinct, w.redOff = nil, nil
	if w.RetainedBytes() <= max {
		return
	}
	w.sample, w.sampleScratch = nil, nil
	w.smplHist, w.smplCnt, w.smplThr = nil, nil, nil
	w.smplDens, w.smplRate, w.smplOver, w.smplSel = nil, nil, nil, nil
	if w.RetainedBytes() <= max {
		return
	}
	w.Release()
}
