package core

import (
	"math"
	"sync/atomic"

	"repro/internal/parallel"
)

// blockRoundsBody implements the theoretical placement algorithm from
// Section 3 of the paper, verbatim:
//
//	"The placement problem can be implemented by partitioning the input
//	into blocks of size log n and inserting records in rounds. In each
//	round, we take an uninserted record from each block in parallel,
//	select a random location in its associated array, check if the
//	location is empty, and if so write the record into the location. ...
//	If unsuccessful it will continue to the next round, otherwise we move
//	to the next record in the block."
//
// Each record succeeds per round with probability ≥ 1−1/α, so all blocks
// finish in O(log n) rounds w.h.p.; a generous round cap converts the
// failure tail into ErrOverflow (handled by the Las Vegas retry).
//
// This path exists for ablation against the practical CAS+linear-probing
// scatter; the per-round barrier makes it slower in practice, which is
// exactly the point the implementation section of the paper makes by not
// using it. Reached through the probing stage with
// Config.Probe == ProbeBlockRounds; it is not allocation-free.
func (pl *plan) blockRoundsBody() error {
	a, buckets, slots, occ := pl.a, pl.buckets, pl.slots, pl.occ
	rng, exact := pl.scatterRNG, pl.cfg.ExactBucketSizes
	n := len(a)
	if n == 0 {
		return nil
	}
	logn := math.Log(math.Max(float64(n), 2))
	blockSize := int(logn)
	if blockSize < 1 {
		blockSize = 1
	}
	nblocks := (n + blockSize - 1) / blockSize

	// cursor[b] is the next unplaced record within block b; heavyCnt[b]
	// accumulates that block's heavy placements (each block is owned by
	// one goroutine per round, so plain int32s suffice).
	cursor := make([]int32, nblocks)
	heavyCnt := make([]int32, nblocks)

	// Expected rounds: (α/(α−1))·log n with α ≈ 1.1 → ~11·log n. The cap
	// leaves ample w.h.p. headroom before declaring overflow.
	maxRounds := 64*int(logn+1)*blockSize + 64

	for round := 0; ; round++ {
		if round > maxRounds {
			return ErrOverflow
		}
		var active atomic.Int64
		parallel.For(pl.procs, nblocks, 64, func(blo, bhi int) {
			localActive := int64(0)
			for b := blo; b < bhi; b++ {
				start := b * blockSize
				limit := min(blockSize, n-start)
				cur := int(cursor[b])
				if cur >= limit {
					continue
				}
				localActive++
				i := start + cur
				r := a[i]
				bid, heavy := pl.bucketOf(r)
				bk := buckets[bid]
				pos := bucketPos(rng.Rand(uint64(i)+uint64(round)<<40), bk.sz, exact)
				idx := bk.off + int64(pos)
				if atomic.CompareAndSwapUint32(&occ[idx], 0, 1) {
					slots[idx] = r
					cursor[b]++
					if heavy {
						heavyCnt[b]++
					}
				}
			}
			if localActive > 0 {
				active.Add(localActive)
			}
		})
		if active.Load() == 0 {
			break
		}
	}
	var total int64
	for _, h := range heavyCnt {
		total += int64(h)
	}
	pl.heavyPlaced.Add(total)
	return nil
}
