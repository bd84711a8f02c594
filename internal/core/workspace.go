package core

import (
	"repro/internal/hashtable"
	"repro/internal/rec"
	"repro/internal/sortint"
)

// A Workspace owns every per-attempt buffer of the pipeline — sample
// arrays, run/bucket descriptors, light histograms, slot and occupancy
// arrays, the counting scatter's histograms and bucket-id column, the
// heavy directory and heavy-key hash table, the retry boost
// map, and (for SemisortShared) a retained output buffer — so repeated
// semisorts reuse memory instead of reallocating ~4-6n bytes per call. In
// steady state a call through a warm Workspace allocates nothing beyond
// the returned slice (and nothing at all via SemisortShared) when
// Procs == 1; parallel dispatch costs a few goroutine closures per phase.
//
// A zero Workspace is ready to use; it grows on demand and is NOT safe
// for concurrent use by multiple semisorts. Buffers only grow unless
// Config.MaxRetainedBytes caps them or Release drops them.
type Workspace struct {
	// Phase 1: the sample and its sort scratch (sample.go).
	sample        []uint64
	sampleScratch []uint64

	// Phase 2: classification and bucket construction.
	runStarts     []int32 // offsets of distinct-key runs in the sorted sample
	runCounts     []int32 // per-block run counts (parallel run-start pass)
	blockHeavy    []int32 // per-block heavy-run counts, then offsets
	heavyRuns     []heavyRun
	lightCounts   []int32
	lightBucketOf []int32
	heavyDir      []dirEntry // direct-mapped heavy directory (buckets.go)
	buckets       []bucket
	table         *hashtable.Table
	boost         map[int32]float64 // bucket id → size multiplier (runAttempts)

	// Phase 3: probing scatter.
	slots []rec.Record
	occ   []uint32

	// Phase 3: counting scatter (histograms and the pass-1 bucket-id
	// column).
	hist   []int32
	counts []int32
	cbase  []int32
	bidCol []uint32 // one bucket id per record

	// Dovetail route: the radix kernel's tables — per-block histograms
	// and per-worker count stacks (a few hundred KiB at most), and the
	// child scratch SemisortFrom sizes to the largest child of its top
	// pass (priced against Config.MaxSlotBytes before it grows).
	rxTables sortint.DovetailTables

	// Phase 4: per-worker fused-reduce arenas (reduce.go) and the
	// size-aware schedule's prefix-sum/boundary buffers (localsort.go).
	lsArenas []lsArena
	lsFree   chan int
	lsCum    []int64
	lsBounds []int32

	// Phases 4–5: light compaction and packing.
	lightCnt     []int32
	lightOffsets []int32
	packCounts   []int32

	// Fused collect-reduce (reduce.go): per-worker heavy accumulator
	// cells (redAccs/redCellReps/redRepBlk, handed out through the redFree
	// free-list), the counting path's light staging area (redStage), the
	// per-group representative buffers, and the spec in flight. redSpec
	// is cleared by ReduceShared before returning so a retained workspace
	// never pins the caller's closures.
	redAccs      []uint64
	redCellReps  []uint64
	redRepBlk    []int32
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
// capacity is insufficient (to rec.RegrowCap). Contents are unspecified
// (callers overwrite).
func grow[T any](buf *[]T, n int) []T {
	if c := cap(*buf); c < n {
		*buf = make([]T, n, rec.RegrowCap(c, n))
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

// ensureArenas sizes the Phase 4 arena pool for `workers` concurrent
// fused-reduce ranges and refills its free-list. Arenas keep their grown
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

// acquireArena blocks until a Phase 4 arena is free and claims it. The
// free-list is a buffered channel of ints: channel operations on scalar
// elements do not allocate, and the channel's happens-before edge hands
// the arena's buffers cleanly between workers.
func (w *Workspace) acquireArena() int { return <-w.lsFree }

// releaseArena returns an arena to the free-list.
func (w *Workspace) releaseArena(s int) { w.lsFree <- s }

// acquireRed claims a row of heavy accumulator cells for one reduce
// chunk; same buffered-channel free-list pattern as the arenas.
func (w *Workspace) acquireRed() int { return <-w.redFree }

// releaseRed returns a cell row to the free-list.
func (w *Workspace) releaseRed(s int) { w.redFree <- s }

// RetainedBytes reports the scratch memory the workspace currently pins,
// the quantity Config.MaxRetainedBytes caps. The heavy directory and
// table and the retained Shared output count; the boost map's few entries
// do not.
func (w *Workspace) RetainedBytes() int64 {
	n := int64(cap(w.sample)+cap(w.sampleScratch)) * 8
	n += int64(cap(w.runStarts)+cap(w.runCounts)+cap(w.blockHeavy)+
		cap(w.lightCounts)+cap(w.lightBucketOf)+cap(w.lightCnt)+
		cap(w.lightOffsets)+cap(w.packCounts)+
		cap(w.hist)+cap(w.counts)+cap(w.cbase)+cap(w.bidCol)) * 4
	n += int64(cap(w.heavyRuns))*16 + int64(cap(w.buckets))*16 + int64(cap(w.heavyDir))*16
	n += int64(cap(w.slots))*16 + int64(cap(w.occ))*4
	n += w.rxTables.RetainedBytes()
	arenas := w.lsArenas[:cap(w.lsArenas)]
	for i := range arenas {
		ar := &arenas[i]
		n += int64(cap(ar.tabLabs))*4 + int64(cap(ar.tabKeys))*8
		n += int64(cap(ar.redAccs)+cap(ar.redReps)+cap(ar.redKeys)) * 8
	}
	n += int64(cap(w.lsCum))*8 + int64(cap(w.lsBounds))*4
	n += int64(cap(w.redAccs)+cap(w.redCellReps)+cap(w.redStageReps)+cap(w.redReps)) * 8
	n += int64(cap(w.redStage)) * 16
	n += int64(cap(w.redRepBlk)+cap(w.redDistinct)+cap(w.redOff)) * 4
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
	w.runStarts, w.runCounts, w.blockHeavy = nil, nil, nil
	w.heavyRuns, w.lightCounts, w.lightBucketOf, w.heavyDir = nil, nil, nil, nil
	w.buckets, w.table, w.boost = nil, nil, nil
	w.slots, w.occ = nil, nil
	w.rxTables.Release()
	w.hist, w.counts, w.cbase, w.bidCol = nil, nil, nil, nil
	w.lsArenas, w.lsFree, w.lsCum, w.lsBounds = nil, nil, nil, nil
	w.lightCnt, w.lightOffsets, w.packCounts = nil, nil, nil
	w.redAccs, w.redCellReps, w.redRepBlk, w.redFree = nil, nil, nil, nil
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
	w.slots, w.occ = nil, nil
	w.rxTables.ReleaseScratch()
	w.redStage, w.redStageReps = nil, nil
	if w.RetainedBytes() <= max {
		return
	}
	w.out, w.redReps = nil, nil
	if w.RetainedBytes() <= max {
		return
	}
	w.hist, w.bidCol, w.heavyDir = nil, nil, nil
	w.rxTables.Release()
	w.lsArenas, w.lsFree, w.lsCum, w.lsBounds = nil, nil, nil, nil
	w.redAccs, w.redCellReps, w.redRepBlk, w.redFree = nil, nil, nil, nil
	w.redDistinct, w.redOff = nil, nil
	if w.RetainedBytes() <= max {
		return
	}
	w.sample, w.sampleScratch = nil, nil
	if w.RetainedBytes() <= max {
		return
	}
	w.Release()
}
