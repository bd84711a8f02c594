package core

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obsv"
)

// phasesOf extracts the phase sequence of one attempt's spans, in
// emission order.
func phasesOf(spans []obsv.Span, attempt int) []obsv.Phase {
	var ps []obsv.Phase
	for _, s := range spans {
		if s.Attempt == attempt {
			ps = append(ps, s.Phase)
		}
	}
	return ps
}

func wantPhases(t *testing.T, got, want []obsv.Phase, attempt int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("attempt %d: phases = %v, want %v", attempt, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("attempt %d: phases = %v, want %v", attempt, got, want)
		}
	}
}

var cleanPhases = []obsv.Phase{
	obsv.PhaseSample, obsv.PhaseClassify, obsv.PhaseAllocate,
	obsv.PhaseScatter, obsv.PhaseLocalSort, obsv.PhasePack,
}

// dovetailPhases is the planner's kernel route: the output and scratch
// binding, then the one kernel call.
var dovetailPhases = []obsv.Phase{obsv.PhaseAllocate, obsv.PhaseLocalSort}

// A clean run traces exactly one attempt of kind "fresh" with every
// span ok and in start order, and scheduler counters flowing into
// Stats.Sched. The sampled pipeline (probing here) traces all six
// phases in paper order; the planner's default, the dovetail route,
// traces the kernel route's two.
// The input is large enough (2^16 records at Procs 4) that the kernel
// runs its passes on the parallel runtime.
func TestObserverCleanRunTrace(t *testing.T) {
	a := mkRecords(1<<16, 100, 3)
	for _, route := range []struct {
		strat  ScatterStrategy
		phases []obsv.Phase
	}{
		{ScatterProbing, cleanPhases},
		{ScatterAuto, dovetailPhases},
	} {
		var col obsv.Collector
		out, stats, err := Semisort(a, &Config{Procs: 4, Observer: &col, ScatterStrategy: route.strat})
		if err != nil {
			t.Fatalf("%v: semisort: %v", route.strat, err)
		}
		checkSemisorted(t, "observed clean run", a, out)

		atts := col.Attempts()
		if len(atts) != 1 || atts[0].Kind != obsv.AttemptFresh || atts[0].Index != 0 {
			t.Fatalf("%v: attempts = %+v, want one fresh attempt 0", route.strat, atts)
		}
		if atts[0].Slack <= 1 {
			t.Errorf("%v: AttemptStart.Slack = %v, want the configured slack > 1", route.strat, atts[0].Slack)
		}
		ends := col.Ends()
		if len(ends) != 1 || ends[0].Outcome != obsv.OutcomeOK {
			t.Fatalf("%v: attempt ends = %+v, want one ok end", route.strat, ends)
		}

		spans := col.Spans()
		wantPhases(t, phasesOf(spans, 0), route.phases, 0)
		var prev time.Duration = -1
		for _, s := range spans {
			if s.Outcome != obsv.OutcomeOK {
				t.Errorf("%v: span %v outcome %q, want ok", route.strat, s.Phase, s.Outcome)
			}
			if s.Start < prev {
				t.Errorf("%v: span %v starts at %v, before previous span's start %v", route.strat, s.Phase, s.Start, prev)
			}
			prev = s.Start
			if s.Duration < 0 {
				t.Errorf("%v: span %v has negative duration %v", route.strat, s.Phase, s.Duration)
			}
		}

		// One sampling round on the sampled pipeline, none on the
		// dovetail route.
		want := 0
		if route.strat == ScatterProbing {
			want = 1
		}
		if stats.SampleRounds != want {
			t.Errorf("%v: Stats.SampleRounds = %d, want %d", route.strat, stats.SampleRounds, want)
		}

		// An Observer turns on the scheduler counters; a 4-worker run
		// over 2^16 records must claim chunks from the flat runtime's
		// cursor.
		if stats.Sched.ChunksClaimed == 0 {
			t.Errorf("%v: Stats.Sched.ChunksClaimed = 0, want > 0: %+v", route.strat, stats.Sched)
		}
	}
}

// On the dovetail route the call's statistics are the radix kernel's:
// no pipeline sample and no buckets, the heavy keys and records its
// nodes pulled out of their distribution passes, and PlannerRoutes
// counting its nodes plus the top-level hand-off. The localsort span
// names the "radix" kernel, and the MaxSlotBytes cap on its child
// scratch ends the localsort span with outcome "cap" before the
// fallback: the kernel prices the scratch once its top pass has fixed
// the children, after the allocate span has bound the output.
func TestObserverDovetailRouteStats(t *testing.T) {
	const n = 1 << 16
	for _, tc := range []struct {
		name     string
		keyRange uint64
		heavy    bool
	}{{"unique", 0, false}, {"keys10", 10, true}, {"keys100", 100, true}} {
		a := mkRecords(n, tc.keyRange, 5)
		var col obsv.Collector
		out, stats, err := Semisort(a, &Config{Procs: 2, Observer: &col})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkSemisorted(t, tc.name, a, out)
		r := stats.PlannerRoutes
		if stats.ScatterStrategy != "dovetail" || stats.SampleSize != 0 || stats.SampleRounds != 0 ||
			stats.LightBuckets != 0 || stats.SlotsAllocated != n || r.ScatterNodes != 0 || r.RadixNodes < 1 {
			t.Errorf("%s: stats %+v, want the dovetail route with no sample or buckets", tc.name, stats)
		}
		if int64(stats.HeavyKeys) != r.HeavyKeysDovetailed || (stats.HeavyKeys > 0) != (r.DovetailNodes > 0) {
			t.Errorf("%s: HeavyKeys = %d, routes %+v", tc.name, stats.HeavyKeys, r)
		}
		if tc.heavy != (stats.HeavyRecords > 0) || stats.HeavyRecords > n ||
			(stats.HeavyRecords > 0) != (stats.HeavyKeys > 0) {
			t.Errorf("%s: %d heavy records for %d heavy keys", tc.name, stats.HeavyRecords, stats.HeavyKeys)
		}
		if tc.keyRange == 10 && stats.HeavyRecords != n {
			// Ten keys of ~6500 records each: every one is heavy in the
			// node that holds it.
			t.Errorf("%s: HeavyRecords = %d, want all %d", tc.name, stats.HeavyRecords, n)
		}
		for _, s := range col.Spans() {
			if s.Phase == obsv.PhaseLocalSort && s.Kernel != "radix" {
				t.Errorf("%s: localsort span kernel %q, want radix", tc.name, s.Kernel)
			}
		}
	}

	// The top pass splits 2^16 unique keys into 128 children of about 512
	// records, so two workers' slices need about 16 KiB: a 1 KiB cap
	// binds.
	a := mkRecords(n, 0, 7)
	var col obsv.Collector
	out, stats, err := Semisort(a, &Config{Procs: 2, Observer: &col, MaxSlotBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	checkSemisorted(t, "capped", a, out)
	if !stats.FallbackUsed || stats.Attempts != 1 {
		t.Fatalf("capped dovetail call: FallbackUsed %v in %d attempts, want the fallback after 1",
			stats.FallbackUsed, stats.Attempts)
	}
	spans := col.Spans()
	wantPhases(t, phasesOf(spans, 0), []obsv.Phase{obsv.PhaseAllocate, obsv.PhaseLocalSort}, 0)
	if spans[0].Outcome != obsv.OutcomeOK || spans[1].Outcome != obsv.OutcomeCap {
		t.Errorf("capped span outcomes %q, %q, want ok then cap", spans[0].Outcome, spans[1].Outcome)
	}
}

// The ISSUE acceptance test: injected scatter overflows must surface as
// retry attempts in the trace — truncated overflow attempts followed by a
// full successful one.
func TestObserverRetrySpans(t *testing.T) {
	a := mkRecords(30000, 100, 7)
	withInjector(t, fault.New(1).Arm(fault.ScatterOverflow, 0, 2))
	var col obsv.Collector
	// Pinned to probing: overflow retries exist only on the probing path.
	out, stats, err := Semisort(a, &Config{Procs: 2, Observer: &col,
		ScatterStrategy: ScatterProbing})
	if err != nil {
		t.Fatalf("semisort after 2 injected overflows: %v", err)
	}
	checkSemisorted(t, "observed retries", a, out)
	if stats.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", stats.Attempts)
	}

	atts := col.Attempts()
	if len(atts) != 3 {
		t.Fatalf("AttemptStart events = %+v, want 3", atts)
	}
	if atts[0].Kind != obsv.AttemptFresh {
		t.Errorf("attempt 0 kind = %q, want fresh", atts[0].Kind)
	}
	// Every retry restarts from Phase 1 with a fresh sample and doubled
	// slack.
	for i := 1; i < len(atts); i++ {
		if atts[i].Kind != obsv.AttemptResample || atts[i].Slack != 2*atts[i-1].Slack {
			t.Errorf("attempt %d = %+v, want kind resample at twice attempt %d's slack %v",
				i, atts[i], i-1, atts[i-1].Slack)
		}
	}

	spans := col.Spans()
	// Overflowing attempts run sample/classify/allocate, then die in
	// scatter: their last span is a scatter span with outcome overflow.
	truncated := []obsv.Phase{
		obsv.PhaseSample, obsv.PhaseClassify, obsv.PhaseAllocate, obsv.PhaseScatter,
	}
	for attempt := 0; attempt < 2; attempt++ {
		ps := phasesOf(spans, attempt)
		wantPhases(t, ps, truncated, attempt)
		for _, s := range spans {
			if s.Attempt != attempt || s.Phase != obsv.PhaseScatter {
				continue
			}
			if s.Outcome != obsv.OutcomeOverflow {
				t.Errorf("attempt %d scatter outcome = %q, want overflow", attempt, s.Outcome)
			}
		}
	}
	wantPhases(t, phasesOf(spans, 2), cleanPhases, 2)

	ends := col.Ends()
	if len(ends) != 3 {
		t.Fatalf("AttemptEnd events = %+v, want 3", ends)
	}
	for i := 0; i < 2; i++ {
		if ends[i].Outcome != obsv.OutcomeOverflow || ends[i].OverflowedBuckets == 0 {
			t.Errorf("attempt %d end = %+v, want overflow with bucket count", i, ends[i])
		}
	}
	if ends[2].Outcome != obsv.OutcomeOK {
		t.Errorf("attempt 2 end = %+v, want ok", ends[2])
	}
}

// Retry exhaustion degrades to the sequential fallback, which the trace
// reports as one extra attempt holding a single fallback span.
func TestObserverFallbackSpan(t *testing.T) {
	a := mkRecords(20000, 100, 11)
	withInjector(t, fault.New(1).Arm(fault.ScatterOverflow, 0, 100))
	var col obsv.Collector
	out, stats, err := Semisort(a, &Config{Procs: 2, Observer: &col,
		ScatterStrategy: ScatterProbing})
	if err != nil {
		t.Fatalf("semisort with exhausted retries: %v", err)
	}
	checkSemisorted(t, "observed fallback", a, out)
	if !stats.FallbackUsed {
		t.Fatal("FallbackUsed = false, want true")
	}

	atts := col.Attempts()
	if len(atts) != maxAttempts+1 {
		t.Fatalf("AttemptStart events = %+v, want %d scatter attempts + fallback", atts, maxAttempts)
	}
	fb := atts[maxAttempts]
	if fb.Kind != obsv.AttemptFallback || fb.Index != stats.Attempts {
		t.Errorf("fallback attempt = %+v, want kind fallback at index %d", fb, stats.Attempts)
	}
	wantPhases(t, phasesOf(col.Spans(), fb.Index), []obsv.Phase{obsv.PhaseFallback}, fb.Index)
	ends := col.Ends()
	if last := ends[len(ends)-1]; last.Index != fb.Index || last.Outcome != obsv.OutcomeOK {
		t.Errorf("fallback end = %+v, want ok at index %d", last, fb.Index)
	}
}

// Scatter spans must carry the strategy attribute: counting on a fused
// reduce, probing on a plain ScatterProbing semisort.
func TestObserverScatterStrategyAttributes(t *testing.T) {
	lastScatter := func(spans []obsv.Span) (obsv.Span, bool) {
		for i := len(spans) - 1; i >= 0; i-- {
			if spans[i].Phase == obsv.PhaseScatter {
				return spans[i], true
			}
		}
		return obsv.Span{}, false
	}

	a := mkRecords(30000, 100, 31)
	var col obsv.Collector
	_, _, _, err := HistogramShared(nil, a, &Config{Procs: 2, Observer: &col})
	if err != nil {
		t.Fatalf("counting histogram: %v", err)
	}
	sp, ok := lastScatter(col.Spans())
	if !ok {
		t.Fatal("no scatter span in counting trace")
	}
	if sp.Strategy != "counting" {
		t.Errorf("counting scatter span Strategy = %q, want counting", sp.Strategy)
	}

	var colP obsv.Collector
	_, _, err = Semisort(a, &Config{Procs: 2, Observer: &colP, ScatterStrategy: ScatterProbing})
	if err != nil {
		t.Fatalf("probing semisort: %v", err)
	}
	sp, ok = lastScatter(colP.Spans())
	if !ok {
		t.Fatal("no scatter span in probing trace")
	}
	if sp.Strategy != "probing" {
		t.Errorf("probing scatter span Strategy = %q, want probing", sp.Strategy)
	}
}

// With no Observer and labels off, every tracer probe must be a plain
// nil/bool check: zero allocations, no time reads.
func TestNilObserverProbesDoNotAllocate(t *testing.T) {
	tr := newTracer(&Config{})
	start := time.Now()
	if got := testing.AllocsPerRun(100, func() {
		tr.attemptStart(obsv.Attempt{Index: 0, Kind: obsv.AttemptFresh})
		tr.phaseStart(0, obsv.PhaseSample)
		tr.span(0, obsv.PhaseSample, start, obsv.OutcomeOK)
		tr.attemptEnd(obsv.AttemptEnd{Index: 0, Outcome: obsv.OutcomeOK})
		tr.labeled("sample", func() {})
	}); got != 0 {
		t.Errorf("nil-observer tracer probes allocate %v per run, want 0", got)
	}
}

// PprofLabels must not perturb results; it only wraps phases in pprof.Do.
func TestPprofLabelsRun(t *testing.T) {
	a := mkRecords(20000, 100, 5)
	out, _, err := Semisort(a, &Config{Procs: 2, PprofLabels: true})
	if err != nil {
		t.Fatalf("semisort with pprof labels: %v", err)
	}
	checkSemisorted(t, "pprof labels", a, out)
}
