package parallel

import (
	"sync/atomic"
	"testing"

	"repro/internal/obsv"
)

// withSched runs fn with the scheduler counters enabled and returns the
// counter deltas it produced.
func withSched(fn func()) obsv.SchedStats {
	obsv.EnableSched()
	defer obsv.DisableSched()
	base := obsv.SchedSnapshot()
	fn()
	return obsv.SchedSnapshot().Sub(base)
}

// The flat runtime's chunk counter is exactly the number of chunks the
// cursor handed out: ceil(n/grain) when parallel, zero on the
// single-chunk sequential fast path.
func TestChunksClaimedExact(t *testing.T) {
	var sum atomic.Int64
	body := func(lo, hi int) { sum.Add(int64(hi - lo)) }

	d := withSched(func() { For(4, 1000, 10, body) })
	if d.ChunksClaimed != 100 {
		t.Errorf("P=4: ChunksClaimed = %d, want 100", d.ChunksClaimed)
	}

	d = withSched(func() { For(1, 1000, 10, body) })
	if d.ChunksClaimed != 0 {
		t.Errorf("P=1 fast path: ChunksClaimed = %d, want 0", d.ChunksClaimed)
	}
	if sum.Load() != 2000 {
		t.Fatalf("bodies covered %d elements, want 2000", sum.Load())
	}
}

// Counters must stay still when no collector is registered, whatever the
// flat runtime and the limiter do.
func TestCountersSilentWhenDisabled(t *testing.T) {
	base := obsv.SchedSnapshot()
	For(4, 1000, 10, func(lo, hi int) {})
	lim := NewLimiter(4)
	lim.Join(func() {}, func() {})
	if d := obsv.SchedSnapshot().Sub(base); d.Total() != 0 {
		t.Fatalf("disabled counters moved: %+v", d)
	}
}

// Every limiter branch is recorded exactly once: spawned on a token or
// run inline, so the two counters sum to the branch count.
func TestLimiterCountersAccount(t *testing.T) {
	lim := NewLimiter(2) // 4 tokens
	block := make(chan struct{})
	release := func() { <-block }
	d := withSched(func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			// 8 branches against 4 tokens: the blocked spawned branches
			// pin their tokens, so later branches must run inline.
			lim.JoinAll(release, release, release, release,
				func() {}, func() {}, func() {}, func() {})
		}()
		close(block)
		<-done
	})
	if got := d.LimiterSpawns + d.LimiterInline; got != 8 {
		t.Errorf("spawns(%d) + inline(%d) = %d, want 8 (one per branch)",
			d.LimiterSpawns, d.LimiterInline, got)
	}
	if d.LimiterSpawns == 0 {
		t.Errorf("LimiterSpawns = 0, want > 0 (tokens were free)")
	}
	if d.LimiterHighWater == 0 {
		t.Errorf("LimiterHighWater = 0, want > 0")
	}

	// Join on a fresh limiter always finds a token for its second branch.
	d = withSched(func() {
		NewLimiter(2).Join(func() {}, func() {})
	})
	if d.LimiterSpawns != 1 || d.LimiterInline != 0 {
		t.Errorf("Join on idle limiter: spawns=%d inline=%d, want 1/0",
			d.LimiterSpawns, d.LimiterInline)
	}

	// procs=1: NewLimiter returns nil, branches run sequentially and are
	// not scheduler events.
	d = withSched(func() {
		NewLimiter(1).Join(func() {}, func() {})
	})
	if d.LimiterSpawns != 0 || d.LimiterInline != 0 {
		t.Errorf("nil limiter recorded events: %+v", d)
	}
}
