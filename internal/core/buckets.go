// Phase 2b — bucket construction (paper Section 4, Phase 2, second
// half): allocate one bucket per heavy key and one per (merged) light
// hash range, sizing each with the high-probability estimate f(s) from
// Section 3.1; record heavy keys in a phase-concurrent hash table.
// Adjacent light buckets with fewer than Delta samples are merged (the
// ~10% memory optimization of Phase 2).
package core

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/hashtable"
	"repro/internal/obsv"
)

// bucket describes one slot range: [off, off+sz) in the slot arrays.
type bucket struct {
	off int64
	sz  uint64 // a power of two unless Config.ExactBucketSizes is set
}

// allocatePhase builds the bucket table. Heavy buckets first (block-major
// run order, so bucket ids are stable for a fixed sample), then merged
// light buckets, all carved out of one big slot array so Phase 5 can pack
// with simple interval scans. It also performs the strategy-specific
// sizing and enforces Config.MaxSlotBytes.
func (pl *plan) allocatePhase() error {
	pl.tr.phaseStart(pl.attempt, obsv.PhaseAllocate)
	tAlloc := time.Now()
	c := &pl.cfg

	// The heavy-key hash table maps key -> bucket index. One key value is
	// reserved by the table as its empty marker; a heavy run with that
	// exact key gets a dedicated bucket checked before the table lookup.
	table := pl.ws.getTable(max(pl.numHeavy, 1))
	pl.table = table
	pl.emptyKeyBucket = -1
	buckets := growEmpty(&pl.ws.buckets, pl.numHeavy+pl.numLight)
	var slotTotal int64
	for _, hr := range pl.heavyRuns {
		id := int64(len(buckets))
		size := 0
		if pl.red == nil {
			// A fused reduce never places heavy records (they fold into
			// per-worker cells), so heavy buckets get no slots at all: the
			// slot arrays and the MaxSlotBytes cap cover light keys only.
			size = pl.model.heavySize(int(hr.count), hr.key>>pl.shift)
			if m, ok := pl.boost[int32(id)]; ok {
				size = boostSize(size, m, c.ExactBucketSizes)
			}
		}
		buckets = append(buckets, bucket{off: slotTotal, sz: uint64(size)})
		slotTotal += int64(size)
		if hr.key == hashtable.Empty {
			pl.emptyKeyBucket = id
		} else {
			table.Insert(hr.key, uint64(id))
		}
	}
	pl.heavySlotEnd = slotTotal

	// Merged light buckets: combine adjacent hash-range slices until each
	// merged bucket holds the estimator's Delta·SampleRate-records merge
	// target — at the uniform one-shot density, exactly the historical
	// at-least-Delta-samples rule — or a single slice when merging is
	// disabled. Sizing tracks the summed per-range mass and the largest
	// merged rate (sizeModel.lightSize).
	pl.lightBucketOf = grow(&pl.ws.lightBucketOf, pl.numLight)
	firstLight := len(buckets)
	{
		start := 0
		var acc int32
		var massAcc, rmax float64
		for i := 0; i < pl.numLight; i++ {
			acc += pl.lightCounts[i]
			massAcc += pl.model.mass(pl.lightCounts[i], uint64(i))
			if r := pl.model.rateOf(uint64(i)); r > rmax {
				rmax = r
			}
			atEnd := i == pl.numLight-1
			if !atEnd && !c.DisableBucketMerging && !pl.model.merged(acc, massAcc) {
				continue
			}
			if c.DisableBucketMerging || pl.model.merged(acc, massAcc) || atEnd {
				id := int32(len(buckets))
				size := pl.model.lightSize(int(acc), massAcc, rmax)
				if m, ok := pl.boost[id]; ok {
					size = boostSize(size, m, c.ExactBucketSizes)
				}
				buckets = append(buckets, bucket{off: slotTotal, sz: uint64(size)})
				slotTotal += int64(size)
				for j := start; j <= i; j++ {
					pl.lightBucketOf[j] = id
				}
				start = i + 1
				acc, massAcc, rmax = 0, 0, 0
			}
		}
	}
	// Range filter: flag every light hash range that contains a heavy key
	// by storing the complement of its bucket id. bucketOf then resolves
	// records in unflagged ranges — the common case when heavy keys are
	// few — with one array load, and sends only flagged ranges to the
	// heavy directory. The Empty-key heavy run flags its range too.
	// (numLight >= 1 always, and a shift of 64 — numLight == 1 — indexes
	// range 0, matching bucketOf's read.)
	for _, hr := range pl.heavyRuns {
		if j := hr.key >> pl.shift; pl.lightBucketOf[j] >= 0 {
			pl.lightBucketOf[j] = ^pl.lightBucketOf[j]
		}
	}
	pl.buildHeavyDir()

	pl.ws.buckets = buckets
	pl.buckets = buckets
	pl.firstLight = firstLight
	pl.numLightMerged = len(buckets) - firstLight
	pl.slotTotal = slotTotal
	if pl.red != nil {
		pl.ensureReduceState()
	}

	if pl.strat == ScatterCounting {
		// The counting scatter writes straight into the output array, so
		// the attempt allocates no slot slack — only the histogram, staging
		// and bucket-id column scratch (plus the heavy directory), which
		// the same memory cap governs.
		pl.cbins = len(buckets)
		pl.cplan = planCounting(pl.n, pl.procs, pl.cbins, int64(pl.n)*4+pl.dirBytes())
		if c.MaxSlotBytes > 0 && pl.cplan.scratchBytes > c.MaxSlotBytes {
			pl.stats.Phases.Buckets = time.Since(pl.bucketsT0)
			pl.tr.span(pl.attempt, obsv.PhaseAllocate, tAlloc, obsv.OutcomeCap)
			return fmt.Errorf("%w: counting scatter needs %d scratch bytes, cap %d",
				errSlotCap, pl.cplan.scratchBytes, c.MaxSlotBytes)
		}
		pl.stats.SlotsAllocated = pl.n
	} else if pl.strat == ScatterDovetail {
		// The dovetail split runs the counting machinery over one bin per
		// heavy bucket plus a single catch-all bin for every light record,
		// writing the packed output directly; the light region is then
		// grouped out-of-place against the workspace radix scratch. No
		// slot arrays on either side, so the memory cap governs the
		// counting scratch (the split classifies in both passes, so it
		// needs no bucket-id column) plus the 16-bytes-per-record radix
		// scratch.
		pl.cbins = pl.firstLight + 1
		pl.cplan = planCounting(pl.n, pl.procs, pl.cbins, pl.dirBytes())
		need := pl.cplan.scratchBytes + int64(pl.n)*16
		if c.MaxSlotBytes > 0 && need > c.MaxSlotBytes {
			pl.stats.Phases.Buckets = time.Since(pl.bucketsT0)
			pl.tr.span(pl.attempt, obsv.PhaseAllocate, tAlloc, obsv.OutcomeCap)
			return fmt.Errorf("%w: dovetail scatter needs %d scratch bytes, cap %d",
				errSlotCap, need, c.MaxSlotBytes)
		}
		pl.stats.SlotsAllocated = pl.n
	} else {
		if c.MaxSlotBytes > 0 && slotTotal*16 > c.MaxSlotBytes {
			pl.stats.Phases.Buckets = time.Since(pl.bucketsT0)
			pl.tr.span(pl.attempt, obsv.PhaseAllocate, tAlloc, obsv.OutcomeCap)
			return fmt.Errorf("%w: need %d slot bytes, cap %d",
				errSlotCap, slotTotal*16, c.MaxSlotBytes)
		}
		pl.slots, pl.occ = pl.ws.getSlots(slotTotal)
		pl.stats.SlotsAllocated = int(slotTotal)
	}
	pl.stats.HeavyKeys = pl.numHeavy
	pl.stats.LightBuckets = pl.numLightMerged
	pl.stats.Phases.Buckets = time.Since(pl.bucketsT0)
	pl.tr.span(pl.attempt, obsv.PhaseAllocate, tAlloc, obsv.OutcomeOK)
	return nil
}

// sizeEstimate is the paper's f(s) multiplied by slack and, unless exact
// sizing is requested, rounded up to a power of two (Section 4, Phase 2):
// the high-probability bound on the record count of a bucket with s sample
// hits. Exact sizing trades the cheap power-of-two masking for ~1.4x less
// slot memory (measured in the ablation benches). Kept as a standalone
// function: it is the sizeModel's uniform-mode delegate (estimator.go),
// so one-shot runs size buckets bit-for-bit as they always did.
func sizeEstimate(s int, logn float64, c, slack float64, rate int, exact bool) int {
	cln := c * logn
	f := (float64(s) + cln + math.Sqrt(cln*cln+2*float64(s)*cln)) * float64(rate)
	size := int(math.Ceil(slack * f))
	if size < 4 {
		size = 4
	}
	if exact {
		return size
	}
	return 1 << uint(bits.Len(uint(size-1)))
}

// boostSize applies a per-bucket retry multiplier to a size estimate,
// preserving the power-of-two invariant unless exact sizing is on.
func boostSize(size int, m float64, exact bool) int {
	s := int(math.Ceil(float64(size) * m))
	if s < size {
		s = size
	}
	if exact {
		return s
	}
	return 1 << uint(bits.Len(uint(s-1)))
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
// (bucketOf): D = pow2 ≥ max(16, 8·numHeavy) direct-mapped slots indexed
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
// Config.MaxSlotBytes with the counting routes' scratch.
func (pl *plan) dirBytes() int64 { return int64(len(pl.heavyDir)) * 16 }

// bucketPos maps a random word to a slot index in [0, size). Power-of-two
// sizes use masking (the paper's choice); exact sizes use the multiply-
// shift reduction.
func bucketPos(r, size uint64, exact bool) uint64 {
	if !exact {
		return r & (size - 1)
	}
	hi, _ := bits.Mul64(r, size)
	return hi
}
