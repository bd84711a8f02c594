package obsv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseSample:    "sample",
		PhaseClassify:  "classify",
		PhaseAllocate:  "allocate",
		PhaseScatter:   "scatter",
		PhaseLocalSort: "localsort",
		PhasePack:      "pack",
		PhaseFallback:  "fallback",
		PhaseHash:      "hash",
		PhaseVerify:    "verify",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
	if got := Phase(250).String(); !strings.Contains(got, "250") {
		t.Errorf("out-of-range phase String() = %q", got)
	}
}

func TestSchedCountersGated(t *testing.T) {
	base := SchedSnapshot()
	// Disabled: probes must not move the counters.
	CountChunk()
	CountLimiterSpawn(3)
	CountLimiterInline()
	if d := SchedSnapshot().Sub(base); d.Total() != 0 {
		t.Fatalf("disabled probes moved counters: %+v", d)
	}

	EnableSched()
	defer DisableSched()
	CountChunk()
	CountChunk()
	CountLimiterSpawn(5)
	CountLimiterSpawn(2) // lower depth must not lower the high water
	CountLimiterInline()
	d := SchedSnapshot().Sub(base)
	if d.ChunksClaimed != 2 || d.LimiterSpawns != 2 || d.LimiterInline != 1 {
		t.Fatalf("enabled counters wrong: %+v", d)
	}
	if d.LimiterHighWater < 5 {
		t.Fatalf("LimiterHighWater = %d, want >= 5", d.LimiterHighWater)
	}
}

func TestSchedEnableNests(t *testing.T) {
	base := SchedSnapshot()
	EnableSched()
	EnableSched()
	DisableSched()
	// Still one user registered: counters must advance.
	CountChunk()
	DisableSched()
	if d := SchedSnapshot().Sub(base); d.ChunksClaimed != 1 {
		t.Fatalf("nested enable broke gating: %+v", d)
	}
}

// The high-water gauge covers one window of collection: a depth reached
// under an earlier, fully released collector must not leak into the next.
func TestSchedHighWaterResetsOnEnable(t *testing.T) {
	EnableSched()
	CountLimiterSpawn(9)
	DisableSched()

	EnableSched()
	defer DisableSched()
	base := SchedSnapshot()
	CountLimiterSpawn(1)
	if d := SchedSnapshot().Sub(base); d.LimiterHighWater != 1 {
		t.Fatalf("LimiterHighWater = %d, want 1 (gauge not reset on enable)", d.LimiterHighWater)
	}
}

// Probes must be allocation-free whether or not a collector is
// registered — they run once per chunk or limiter branch on the hot
// fork–join paths.
func TestProbesDoNotAllocate(t *testing.T) {
	probe := func() {
		CountChunk()
		CountLimiterSpawn(4)
		CountLimiterInline()
	}
	if n := testing.AllocsPerRun(200, probe); n != 0 {
		t.Fatalf("disabled probes allocate %v per run", n)
	}
	EnableSched()
	defer DisableSched()
	if n := testing.AllocsPerRun(200, probe); n != 0 {
		t.Fatalf("enabled probes allocate %v per run", n)
	}
}

func TestCollector(t *testing.T) {
	c := &Collector{}
	c.AttemptStart(Attempt{Index: 0, Kind: AttemptFresh, Slack: 1.1})
	c.PhaseStart(0, PhaseSample)
	c.PhaseEnd(Span{Attempt: 0, Phase: PhaseSample, Duration: time.Millisecond, Outcome: OutcomeOK})
	c.PhaseEnd(Span{Attempt: 0, Phase: PhaseScatter, Outcome: OutcomeOverflow})
	c.AttemptEnd(AttemptEnd{Index: 0, Outcome: OutcomeOverflow, OverflowedBuckets: 2})
	if got := c.Spans(); len(got) != 2 || got[1].Outcome != OutcomeOverflow {
		t.Fatalf("Spans() = %+v", got)
	}
	if got := c.Attempts(); len(got) != 1 || got[0].Kind != AttemptFresh {
		t.Fatalf("Attempts() = %+v", got)
	}
	if got := c.Ends(); len(got) != 1 || got[0].OverflowedBuckets != 2 {
		t.Fatalf("Ends() = %+v", got)
	}
	c.Reset()
	if len(c.Spans())+len(c.Attempts())+len(c.Ends()) != 0 {
		t.Fatal("Reset did not clear the collector")
	}
}

func TestJSONSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONSink(&buf)
	s.AttemptStart(Attempt{Index: 0, Kind: AttemptFresh, Slack: 1.1})
	s.PhaseEnd(Span{Attempt: 0, Phase: PhaseScatter,
		Start: 812 * time.Microsecond, Duration: 1604 * time.Microsecond,
		Outcome: OutcomeOverflow})
	s.AttemptEnd(AttemptEnd{Index: 0, Outcome: OutcomeOverflow, OverflowedBuckets: 2})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	var events []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		events = append(events, m)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0]["event"] != "attempt_start" || events[0]["kind"] != "fresh" {
		t.Errorf("attempt_start event = %v", events[0])
	}
	sp := events[1]
	if sp["event"] != "span" || sp["phase"] != "scatter" ||
		sp["start_us"] != float64(812) || sp["dur_us"] != float64(1604) ||
		sp["outcome"] != "overflow" {
		t.Errorf("span event = %v", sp)
	}
	if events[2]["event"] != "attempt_end" || events[2]["overflowed_buckets"] != float64(2) {
		t.Errorf("attempt_end event = %v", events[2])
	}
}

type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errSink }

var errSink = &json.UnsupportedValueError{Str: "sink failure"}

func TestJSONSinkStickyError(t *testing.T) {
	s := NewJSONSink(errWriter{})
	s.AttemptStart(Attempt{Index: 0, Kind: AttemptFresh})
	if s.Err() == nil {
		t.Fatal("expected a sticky write error")
	}
}

func TestMulti(t *testing.T) {
	a, b := &Collector{}, &Collector{}
	m := Multi(a, nil, b)
	m.AttemptStart(Attempt{Index: 0, Kind: AttemptFresh})
	m.PhaseStart(0, PhaseSample)
	m.PhaseEnd(Span{Attempt: 0, Phase: PhaseSample, Outcome: OutcomeOK})
	m.AttemptEnd(AttemptEnd{Index: 0, Outcome: OutcomeOK})
	for i, c := range []*Collector{a, b} {
		if len(c.Spans()) != 1 || len(c.Attempts()) != 1 || len(c.Ends()) != 1 {
			t.Errorf("collector %d missed events", i)
		}
	}
}

// TraceRegionSink must tolerate running without an active trace and
// balance regions across the PhaseStart/PhaseEnd protocol.
func TestTraceRegionSinkNoTrace(t *testing.T) {
	s := &TraceRegionSink{}
	s.AttemptStart(Attempt{Index: 0, Kind: AttemptFresh})
	s.PhaseStart(0, PhaseSample)
	s.PhaseEnd(Span{Attempt: 0, Phase: PhaseSample, Outcome: OutcomeOK})
	s.PhaseEnd(Span{Attempt: 0, Phase: PhaseSample, Outcome: OutcomeOK}) // unbalanced end: no panic
	s.AttemptEnd(AttemptEnd{Index: 0, Outcome: OutcomeOK})
}

func TestSchedSnapshotConcurrent(t *testing.T) {
	EnableSched()
	defer DisableSched()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				CountChunk()
				CountLimiterSpawn(i % 8)
			}
		}()
	}
	wg.Wait()
	// No assertion on absolute values (other tests run concurrently under
	// -race); the point is the race detector sees only atomic access.
	_ = SchedSnapshot()
}
