package obsv

import "sync/atomic"

// schedUsers refcounts the registered collectors: the counters advance
// only while it is non-zero, so an uninstrumented run pays one atomic
// load per probe (the fault-injection budget) and nothing else.
var schedUsers atomic.Int32

// sched holds the process-wide scheduler counters. They are cumulative;
// consumers take SchedSnapshot deltas rather than resetting, so nested
// and concurrent collectors cannot clobber each other. The one exception
// is the limiterHighWater gauge, which EnableSched resets when the first
// collector registers.
var sched struct {
	chunksClaimed    atomic.Int64
	limiterSpawns    atomic.Int64
	limiterInline    atomic.Int64
	limiterHighWater atomic.Int64
}

// EnableSched registers a scheduler-counter collector; DisableSched
// releases it. Calls nest (refcounted); every EnableSched must be paired
// with a DisableSched. The first collector to register resets the
// LimiterHighWater gauge.
func EnableSched() {
	if schedUsers.Add(1) == 1 {
		sched.limiterHighWater.Store(0)
	}
}

// DisableSched releases a collector registered with EnableSched.
func DisableSched() { schedUsers.Add(-1) }

// SchedEnabled reports whether any scheduler-counter collector is
// registered. Probes in internal/parallel call it (or the Count*
// helpers, which begin with the same single atomic load) before paying
// for an atomic increment.
func SchedEnabled() bool { return schedUsers.Load() != 0 }

// SchedSnapshot returns the current cumulative counter values. Subtract
// a snapshot taken earlier (SchedStats.Sub) to attribute activity to a
// region of interest.
func SchedSnapshot() SchedStats {
	return SchedStats{
		ChunksClaimed:    sched.chunksClaimed.Load(),
		LimiterSpawns:    sched.limiterSpawns.Load(),
		LimiterInline:    sched.limiterInline.Load(),
		LimiterHighWater: sched.limiterHighWater.Load(),
	}
}

// CountChunk records one chunk handed out by the flat runtime's cursor.
func CountChunk() {
	if SchedEnabled() {
		sched.chunksClaimed.Add(1)
	}
}

// CountLimiterSpawn records one limiter branch run on a fresh goroutine,
// with depth the number of tokens in use after acquisition; the maximum
// depth observed is kept as the LimiterHighWater gauge.
func CountLimiterSpawn(depth int) {
	if !SchedEnabled() {
		return
	}
	sched.limiterSpawns.Add(1)
	d := int64(depth)
	for {
		cur := sched.limiterHighWater.Load()
		if d <= cur || sched.limiterHighWater.CompareAndSwap(cur, d) {
			return
		}
	}
}

// CountLimiterInline records one limiter branch that found no token and
// ran inline on the caller.
func CountLimiterInline() {
	if SchedEnabled() {
		sched.limiterInline.Add(1)
	}
}
