// Phase 2b — bucket construction (paper Section 4, Phase 2, second
// half): number one bucket per heavy key and one per (merged) light hash
// range, and record heavy keys in a phase-concurrent hash table and the
// heavy directory. Adjacent light buckets with fewer than Delta samples
// are merged (the ~10% memory optimization of Phase 2). Sizing is the
// stage's: only the probing scatter carves f(s)-sized slot arrays
// (probingStage.allocate); the counting route prices its scratch
// instead. The dovetail route builds no buckets (scatter_dovetail.go).
package core

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/hashtable"
	"repro/internal/obsv"
)

// allocatePhase builds the bucket ids — heavy buckets first (block-major
// run order, so ids are stable for a fixed sample), then merged light
// buckets — and the heavy directory, hands the stage its own allocation
// (st.allocate), which enforces Config.MaxSlotBytes, and then flags the
// range filter that resolves light ranges holding heavy keys.
func (pl *plan) allocatePhase(st scatterStage) error {
	pl.tr.phaseStart(pl.attempt, obsv.PhaseAllocate)
	tAlloc := time.Now()
	c := &pl.cfg

	// The heavy-key hash table maps key -> bucket index. One key value is
	// reserved by the table as its empty marker; a heavy run with that
	// exact key gets a dedicated bucket checked before the table lookup.
	table := pl.ws.getTable(max(pl.numHeavy, 1))
	pl.table = table
	pl.emptyKeyBucket = -1
	for id, hr := range pl.heavyRuns {
		if hr.key == hashtable.Empty {
			pl.emptyKeyBucket = int64(id)
		} else {
			table.Insert(hr.key, uint64(id))
		}
	}

	// Merged light buckets: combine adjacent hash-range slices until each
	// merged bucket holds at least Delta samples (the last bucket takes
	// whatever remains).
	pl.lightBucketOf = grow(&pl.ws.lightBucketOf, pl.numLight)
	pl.firstLight = pl.numHeavy
	id := int32(pl.firstLight)
	start := 0
	var acc int32
	for i := 0; i < pl.numLight; i++ {
		acc += pl.lightCounts[i]
		if i < pl.numLight-1 && acc < int32(c.Delta) {
			continue
		}
		for j := start; j <= i; j++ {
			pl.lightBucketOf[j] = id
		}
		id++
		start = i + 1
		acc = 0
	}
	pl.numLightMerged = int(id) - pl.firstLight
	pl.buildHeavyDir()

	if err := st.allocate(pl); err != nil {
		pl.stats.Phases.Buckets = time.Since(pl.bucketsT0)
		pl.tr.span(pl.attempt, obsv.PhaseAllocate, tAlloc, obsv.OutcomeCap)
		return err
	}
	// Range filter: flag every light hash range that contains a heavy key
	// by storing the complement of its bucket id (after st.allocate,
	// which reads the plain ids). bucketOfBatch then resolves records in
	// unflagged ranges — the common case when heavy keys are few — with
	// one array load, and sends only flagged ranges to the heavy
	// directory. The Empty-key heavy run flags its range too. (numLight
	// >= 1 always, and a shift of 64 — numLight == 1 — indexes range 0,
	// matching bucketOfBatch's read.)
	for _, hr := range pl.heavyRuns {
		if j := hr.key >> pl.shift; pl.lightBucketOf[j] >= 0 {
			pl.lightBucketOf[j] = ^pl.lightBucketOf[j]
		}
	}
	pl.stats.HeavyKeys = pl.numHeavy
	pl.stats.LightBuckets = pl.numLightMerged
	pl.stats.Phases.Buckets = time.Since(pl.bucketsT0)
	pl.tr.span(pl.attempt, obsv.PhaseAllocate, tAlloc, obsv.OutcomeOK)
	return nil
}

// capScratch prices a stage's scratch against Config.MaxSlotBytes: past
// the cap the attempt aborts with errSlotCap, which sends the call to the
// sequential fallback before anything is allocated.
func (pl *plan) capScratch(what string, need int64) error {
	if limit := pl.cfg.MaxSlotBytes; limit > 0 && need > limit {
		return fmt.Errorf("%w: %s needs %d bytes, cap %d", errSlotCap, what, need, limit)
	}
	return nil
}

// A dirEntry is one slot of the heavy directory: a heavy key and its
// bucket id, or no key (hid dirEmpty), or a collision (hid dirShared).
type dirEntry struct {
	key uint64
	hid int32
}

const (
	dirEmpty  = -1 // no heavy key maps to the slot
	dirShared = -2 // two or more heavy keys map to the slot: ask the table
	// dirMul is the directory's multiplicative index (Fibonacci hashing):
	// it mixes every key bit into the top bits it keeps, so the slot does
	// not depend on the top bits the light ranges index, nor on the low
	// bits the external shuffle partitions by.
	dirMul = 0x9e3779b97f4a7c15
)

// buildHeavyDir fills the heavy directory, the classifier's second step
// (bucketOfBatch): D = pow2 ≥ max(16, 8·numHeavy) direct-mapped slots indexed
// by (key·dirMul) >> (64 − log2 D). At that load most heavy keys own
// their slot, so a heavy record resolves with one load and one compare;
// keys in shared slots fall back to the heavy table. The Empty key lives
// here like any other (its bucket id is emptyKeyBucket).
func (pl *plan) buildHeavyDir() {
	logD := bits.Len(uint(max(16, 8*pl.numHeavy) - 1))
	dir := grow(&pl.ws.heavyDir, 1<<logD)
	for i := range dir {
		dir[i] = dirEntry{hid: dirEmpty}
	}
	pl.dirShift = uint(64 - logD)
	for id, hr := range pl.heavyRuns {
		e := &dir[(hr.key*dirMul)>>pl.dirShift]
		if e.hid == dirEmpty {
			*e = dirEntry{key: hr.key, hid: int32(id)}
		} else {
			e.hid = dirShared
		}
	}
	pl.heavyDir = dir
}

// dirBytes is the heavy directory's footprint, priced against
// Config.MaxSlotBytes with the counting route's scratch.
func (pl *plan) dirBytes() int64 { return int64(len(pl.heavyDir)) * 16 }
