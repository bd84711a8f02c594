package obsv

import (
	"encoding/json"
	"testing"
)

func TestPoolGaugesSnapshot(t *testing.T) {
	var g PoolGauges
	g.QueueDepth.Store(3)
	g.Active.Add(2)
	g.Admissions.Add(10)
	g.Rejections.Add(4)
	g.Timeouts.Add(1)
	g.Panics.Add(1)
	g.Discards.Add(2)
	g.Drains.Add(1)
	g.RetainedBytes.Store(1 << 20)

	s := g.Snapshot()
	want := PoolSnapshot{QueueDepth: 3, Active: 2, Admissions: 10, Rejections: 4,
		Timeouts: 1, Panics: 1, Discards: 2, Drains: 1, RetainedBytes: 1 << 20}
	if s != want {
		t.Fatalf("Snapshot = %+v, want %+v", s, want)
	}

	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back PoolSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != want {
		t.Fatalf("JSON round trip = %+v, want %+v", back, want)
	}
}

func TestLatencyHistSummary(t *testing.T) {
	var h LatencyHist
	if s := h.Summary(); s != (LatencySummary{}) {
		t.Fatalf("empty Summary = %+v, want zero", s)
	}
	// 1000 observations: 399 zeros and one negative, 585 of 100 us, 13
	// of 5000 us, two of 70000 us. Bucket edges: 100 → [64, 128) → 127;
	// 5000 → 8191; 70000 → 131071.
	h.Observe(-5) // counts as 0
	for i := 1; i < 1000; i++ {
		switch {
		case i < 400:
			h.Observe(0)
		case i < 985:
			h.Observe(100)
		case i < 998:
			h.Observe(5000)
		default:
			h.Observe(70000)
		}
	}
	want := LatencySummary{Count: 1000, P50: 127, P99: 8191, P999: 131071}
	if s := h.Summary(); s != want {
		t.Fatalf("Summary = %+v, want %+v", s, want)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Observe allocates %v times", n)
	}
}
