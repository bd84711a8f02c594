package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

// traceEvent mirrors the JSONSink wire shape for decoding in tests.
type traceEvent struct {
	Event   string `json:"event"`
	Attempt int    `json:"attempt"`
	Kind    string `json:"kind"`
	Phase   string `json:"phase"`
	DurUS   int64  `json:"dur_us"`
	Outcome string `json:"outcome"`
}

func readTrace(t *testing.T, path string) []traceEvent {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer f.Close()
	var events []traceEvent
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e traceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// The observe experiment writes a JSON trace with one span per phase per
// attempt. With an injected scatter overflow the trace must show the
// retry structure: truncated overflow attempts before the clean one.
func TestRunObserveTraceShowsRetries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	fault.Enable(fault.New(1).Arm(fault.ScatterOverflow, 0, 2))
	defer fault.Disable()
	tables := RunObserve(Options{
		N: 50_000, Procs: []int{2}, Reps: 1, Seed: 99, TracePath: path, Out: io.Discard,
	})
	if len(tables) != 2 {
		t.Fatalf("RunObserve returned %d tables, want 2", len(tables))
	}

	events := readTrace(t, path)
	spansPerAttempt := map[int]map[string]int{}
	var starts, ends []traceEvent
	for _, e := range events {
		switch e.Event {
		case "attempt_start":
			starts = append(starts, e)
		case "attempt_end":
			ends = append(ends, e)
		case "span":
			m := spansPerAttempt[e.Attempt]
			if m == nil {
				m = map[string]int{}
				spansPerAttempt[e.Attempt] = m
			}
			m[e.Phase]++
		default:
			t.Errorf("unknown event %q in trace", e.Event)
		}
	}
	if len(starts) != 3 || len(ends) != 3 {
		t.Fatalf("attempt starts/ends = %d/%d, want 3/3 (two overflows + success)", len(starts), len(ends))
	}
	if starts[0].Kind != "fresh" || starts[1].Kind != "resample" || starts[2].Kind != "resample" {
		t.Errorf("attempt kinds = %q, %q, %q, want fresh, resample, resample",
			starts[0].Kind, starts[1].Kind, starts[2].Kind)
	}
	// Every attempt, restarts included, draws its own sample before the
	// scatter the injected overflow cuts short.
	for attempt := 0; attempt < 2; attempt++ {
		m := spansPerAttempt[attempt]
		if m["sample"] != 1 || m["scatter"] != 1 {
			t.Errorf("attempt %d: sample/scatter spans = %d/%d, want 1/1", attempt, m["sample"], m["scatter"])
		}
		if ends[attempt].Outcome != "overflow" {
			t.Errorf("attempt %d outcome = %q, want overflow", attempt, ends[attempt].Outcome)
		}
	}
	// The successful attempt carries exactly one span per phase.
	m := spansPerAttempt[2]
	for _, ph := range []string{"sample", "classify", "allocate", "scatter", "localsort", "pack"} {
		if m[ph] != 1 {
			t.Errorf("attempt 2: %s spans = %d, want 1 (%v)", ph, m[ph], m)
		}
	}
	if ends[2].Outcome != "ok" {
		t.Errorf("attempt 2 outcome = %q, want ok", ends[2].Outcome)
	}
}

// A clean observe run yields six ok spans per rep for attempt 0.
func TestRunObserveCleanTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	RunObserve(Options{N: 50_000, Procs: []int{2}, Reps: 2, Seed: 7, TracePath: path, Out: io.Discard})
	events := readTrace(t, path)
	spans := 0
	for _, e := range events {
		if e.Event != "span" {
			continue
		}
		if e.Outcome != "ok" || e.Attempt != 0 {
			t.Errorf("clean-run span = %+v, want attempt 0 ok", e)
		}
		spans++
	}
	if spans != 12 {
		t.Errorf("span events = %d, want 12 (6 phases x 2 reps)", spans)
	}
}

// Baseline round trip: measure, write, read back, compare against itself.
func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_semisort.json")
	o := Options{N: 50_000, Procs: []int{2}, Reps: 2, Seed: 5}
	b := MeasureBaseline(o)
	if b.TotalSec <= 0 {
		t.Fatalf("baseline = %+v, want positive total", b)
	}
	for _, ph := range []string{
		"sample", "buckets", "scatter", "localsort", "pack",
		"dovetail_localsort", "dovetail_total",
		"reduce_counting", "reduce_histogram",
	} {
		if b.PhasesSec[ph] <= 0 {
			t.Fatalf("baseline phase %q = %v, want positive (%+v)", ph, b.PhasesSec[ph], b)
		}
	}
	if err := b.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != b.N || got.Procs != b.Procs || got.Seed != b.Seed || got.TotalSec != b.TotalSec {
		t.Fatalf("round trip changed the baseline: %+v vs %+v", got, b)
	}
	if err := Compare(got, b, 0.15); err != nil {
		t.Errorf("baseline vs itself: %v", err)
	}
}

// Compare flags phase-level regressions beyond tolerance and rejects
// mismatched measurement configurations.
func TestCompareDetectsRegression(t *testing.T) {
	base := Baseline{
		N: 1000, Procs: 2, Reps: 3, Seed: 1,
		PhasesSec: map[string]float64{
			"sample": 0.10, "buckets": 0.10, "scatter": 0.40, "localsort": 0.20, "pack": 0.20,
		},
		TotalSec: 1.0,
	}
	clone := func() Baseline {
		c := base
		c.PhasesSec = map[string]float64{}
		for k, v := range base.PhasesSec {
			c.PhasesSec[k] = v
		}
		return c
	}

	if err := Compare(clone(), base, 0.15); err != nil {
		t.Errorf("identical measurement flagged: %v", err)
	}

	slow := clone()
	slow.PhasesSec["scatter"] = 0.40 * 1.30 // +30% on the dominant phase
	if err := Compare(slow, base, 0.15); err == nil {
		t.Error("30% scatter regression not flagged at 15% tolerance")
	} else if !strings.Contains(err.Error(), "scatter") {
		t.Errorf("regression error %q does not name the scatter phase", err)
	}

	// A phase below the noise floor may jitter freely; only the total
	// catches it.
	basePackTiny := clone()
	basePackTiny.PhasesSec["pack"] = 0.001
	tiny := clone()
	tiny.PhasesSec["pack"] = 0.005 // 5x the (sub-floor) baseline value
	if err := Compare(tiny, basePackTiny, 0.15); err != nil {
		t.Errorf("sub-noise-floor phase flagged: %v", err)
	}

	mismatch := clone()
	mismatch.N = 2000
	if err := Compare(mismatch, base, 0.15); err == nil {
		t.Error("config mismatch not flagged")
	}

	missing := clone()
	delete(missing.PhasesSec, "scatter")
	if err := Compare(missing, base, 0.15); err == nil {
		t.Error("missing phase not flagged")
	}

	slowTotal := clone()
	slowTotal.TotalSec = 1.3
	if err := Compare(slowTotal, base, 0.15); err == nil {
		t.Error("total regression not flagged")
	}
}

// ExampleRunObserve shows the tables `semibench -experiment observe`
// renders: the span-level phase breakdown and the scheduler counters.
func ExampleRunObserve() {
	tables := RunObserve(Options{N: 50_000, Procs: []int{2}, Reps: 1, Out: io.Discard})
	for _, t := range tables {
		fmt.Println(t.Title)
	}
	// Output:
	// observe: phase spans (uniform, p=2)
	// observe: scheduler counters (best rep, p=2)
}

// Compare's allocation gate: absolute budget, baseline-driven (old
// baselines without AllocsPerOp are not gated).
func TestCompareAllocationGate(t *testing.T) {
	base := Baseline{
		N: 1000, Procs: 2, Reps: 3, Seed: 1,
		PhasesSec:   map[string]float64{"scatter": 0.5},
		TotalSec:    1.0,
		AllocsPerOp: map[string]float64{"probing": 1, "counting": 1},
	}
	clone := func() Baseline {
		c := base
		c.PhasesSec = map[string]float64{"scatter": 0.5}
		c.AllocsPerOp = map[string]float64{}
		for k, v := range base.AllocsPerOp {
			c.AllocsPerOp[k] = v
		}
		return c
	}

	if err := Compare(clone(), base, 0.15); err != nil {
		t.Errorf("identical allocation counts flagged: %v", err)
	}

	within := clone()
	within.AllocsPerOp["probing"] = 3 // +2: exactly the budget
	if err := Compare(within, base, 0.15); err != nil {
		t.Errorf("allocation within budget flagged: %v", err)
	}

	over := clone()
	over.AllocsPerOp["counting"] = 4 // +3: over the +2 budget
	if err := Compare(over, base, 0.15); err == nil {
		t.Error("allocation regression not flagged")
	} else if !strings.Contains(err.Error(), "counting allocs/op") {
		t.Errorf("regression error %q does not name the counting allocation gate", err)
	}

	missing := clone()
	delete(missing.AllocsPerOp, "probing")
	if err := Compare(missing, base, 0.15); err == nil {
		t.Error("missing allocation count not flagged")
	}

	// A pre-refactor baseline has no AllocsPerOp: nothing to gate.
	old := base
	old.AllocsPerOp = nil
	cur := clone()
	if err := Compare(cur, old, 0.15); err != nil {
		t.Errorf("pre-AllocsPerOp baseline flagged: %v", err)
	}
}

// RunReuse renders the workspace-reuse experiment and reports a shared
// steady state that allocates nothing.
func TestRunReuseTiny(t *testing.T) {
	tabs := RunReuse(tinyOptions())
	if len(tabs) != 1 || len(tabs[0].Rows) != 6 {
		t.Fatalf("RunReuse: want 1 table with 6 rows, got %+v", tabs)
	}
	for _, row := range tabs[0].Rows {
		if row[1] == "shared" && row[3] != "0.0" {
			t.Errorf("%s/shared steady state allocates %s per op, want 0.0", row[0], row[3])
		}
	}
}
