package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/distgen"
	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/rec"
	"repro/internal/sortint"
)

// sameRecords reports whether two outputs are byte-identical.
func sameRecords(a, b []rec.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sampledRun runs a through the counting route — a fused histogram, the
// default call kind that still draws the pipeline sample (a plain
// semisort takes the dovetail route, which draws none) — and returns a
// copy of its groups, so the sampling tests see Phase 1 statistics and
// byte-comparable output at any Procs.
func sampledRun(ws *Workspace, a []rec.Record, cfg *Config) ([]rec.Record, Stats, error) {
	out, _, stats, err := HistogramShared(ws, a, cfg)
	return append([]rec.Record(nil), out...), stats, err
}

// checkCounts asserts a sampledRun output holds one group per distinct
// key of in, each with the key's multiplicity.
func checkCounts(t *testing.T, label string, in, out []rec.Record) {
	t.Helper()
	want := rec.KeyCounts(in)
	if len(out) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(out), len(want))
	}
	for _, r := range out {
		if uint64(want[r.Key]) != r.Value {
			t.Fatalf("%s: key %#x count %d, want %d", label, r.Key, r.Value, want[r.Key])
		}
	}
}

// Adaptive sampling on a skewed input must terminate within the round
// cap and never spend more sample budget than the one-shot rate.
func TestAdaptiveSamplingBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		keyRange uint64
	}{
		{"heavy", 100},
		{"near-unique", 1 << 62},
		{"mid", 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := mkRecords(120000, tc.keyRange, 7)
			out, stats, err := sampledRun(nil, a, &Config{Procs: 4})
			if err != nil {
				t.Fatal(err)
			}
			checkCounts(t, tc.name, a, out)
			c := (&Config{}).withDefaults()
			if stats.SampleRounds < 1 || stats.SampleRounds > c.SampleMaxRounds {
				t.Errorf("SampleRounds = %d, want in [1, %d]", stats.SampleRounds, c.SampleMaxRounds)
			}
			if budget := len(a) / c.SampleRate; stats.SampleSize > budget {
				t.Errorf("SampleSize = %d exceeds one-shot budget %d", stats.SampleSize, budget)
			}
		})
	}
}

// OneShotSampling must reproduce the historical Phase 1 exactly: one
// round, |S| = N/SampleRate.
func TestOneShotSamplingLegacyShape(t *testing.T) {
	a := mkRecords(60000, 300, 5)
	out, stats, err := sampledRun(nil, a, &Config{Procs: 2, OneShotSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, "one-shot", a, out)
	if stats.SampleRounds != 1 {
		t.Errorf("SampleRounds = %d, want 1", stats.SampleRounds)
	}
	c := (&Config{}).withDefaults()
	if want := len(a) / c.SampleRate; stats.SampleSize != want {
		t.Errorf("SampleSize = %d, want exactly %d", stats.SampleSize, want)
	}
}

// Inputs too small to afford a pilot pass degrade to the one-shot shape
// without the flag.
func TestAdaptiveSmallInputDegradesToOneShot(t *testing.T) {
	a := mkRecords(2000, 50, 9)
	out, stats, err := sampledRun(nil, a, &Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, "small input", a, out)
	if stats.SampleRounds != 1 {
		t.Errorf("SampleRounds = %d, want 1 (n too small for a pilot)", stats.SampleRounds)
	}
	c := (&Config{}).withDefaults()
	if want := len(a) / c.SampleRate; stats.SampleSize != want {
		t.Errorf("SampleSize = %d, want one-shot %d", stats.SampleSize, want)
	}
}

// SampleMaxRounds is a hard cap: 1 pins the loop to the pilot, and an
// unreachable tolerance drives the loop to exactly the cap.
func TestSampleRoundCap(t *testing.T) {
	a := mkRecords(120000, 5000, 11)
	_, stats, err := sampledRun(nil, a, &Config{Procs: 2, SampleMaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SampleRounds != 1 {
		t.Errorf("SampleMaxRounds=1: rounds = %d, want 1", stats.SampleRounds)
	}

	_, stats, err = sampledRun(nil, a, &Config{Procs: 2, SampleMaxRounds: 3, SampleTolerance: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	// An absurd tolerance can never converge, but the budget may run out
	// before the cap; either bound may bind, never beyond the cap.
	if stats.SampleRounds < 2 || stats.SampleRounds > 3 {
		t.Errorf("tolerance-starved rounds = %d, want 2..3", stats.SampleRounds)
	}
}

// The sampling loop must be byte-deterministic across proc counts:
// identical sample rounds, sample size, and (under the deterministic
// counting scatter) identical output.
func TestAdaptiveSamplingProcDeterminism(t *testing.T) {
	a := mkRecords(150000, 2000, 13)
	var ref []rec.Record
	var refStats Stats
	for i, procs := range []int{1, 2, 8} {
		out, stats, err := sampledRun(nil, a, &Config{Procs: procs})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if i == 0 {
			ref, refStats = out, stats
			continue
		}
		if stats.SampleRounds != refStats.SampleRounds || stats.SampleSize != refStats.SampleSize {
			t.Errorf("procs=%d: rounds/size = %d/%d, want %d/%d",
				procs, stats.SampleRounds, stats.SampleSize,
				refStats.SampleRounds, refStats.SampleSize)
		}
		if !sameRecords(out, ref) {
			t.Errorf("procs=%d: output differs from procs=1", procs)
		}
	}
}

// Regression for the dropped getSample second return: the sample sort's
// scratch buffer must come from (and stay in) the workspace, so repeated
// warm calls — including the escalation path that resamples mid-call —
// reuse both sample buffers instead of growing fresh ones.
func TestSampleBufferReuseAcrossAttempts(t *testing.T) {
	a := mkRecords(60000, 100, 17)
	var ws Workspace
	cfg := &Config{Procs: 1, Seed: 11, MaxRetries: 6, ScatterStrategy: ScatterProbing}
	ref, _, err := SemisortWS(&ws, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSemisorted(t, "warm-up", a, ref)
	sampCap, scratchCap := cap(ws.sample), cap(ws.sampleScratch)
	if sampCap == 0 || scratchCap == 0 {
		t.Fatalf("warm workspace retains sample caps %d/%d, want both > 0", sampCap, scratchCap)
	}

	// An identical warm call draws the same sample: neither buffer may be
	// reallocated (the historical bug dropped the sort scratch on the
	// floor, costing a fresh allocation per call).
	if _, _, err := SemisortWS(&ws, a, cfg); err != nil {
		t.Fatal(err)
	}
	if cap(ws.sample) != sampCap || cap(ws.sampleScratch) != scratchCap {
		t.Fatalf("identical warm call reallocated sample buffers: %d/%d -> %d/%d",
			sampCap, scratchCap, cap(ws.sample), cap(ws.sampleScratch))
	}

	// Escalation resamples within one call (fresh draws, same buffers):
	// three injected overflows exhaust the boost ladder and force a
	// resample attempt before success. The resample's kept count jitters,
	// so the buffers may grow to fit — but only marginally, never like a
	// from-scratch allocation.
	withInjector(t, fault.New(1).Arm(fault.ScatterOverflow, 0, 3))
	out, stats, err := SemisortWS(&ws, a, cfg)
	fault.Disable()
	if err != nil {
		t.Fatalf("semisort with escalation: %v", err)
	}
	checkSemisorted(t, "escalation reuse", a, out)
	if stats.Retries != 3 {
		t.Errorf("Retries = %d, want 3 (two boosts + one resample)", stats.Retries)
	}
	if c := cap(ws.sample); c > sampCap*5/4 {
		t.Errorf("escalation grew the sample buffer %d -> %d, want at most resample jitter", sampCap, c)
	}
	if c := cap(ws.sampleScratch); c > scratchCap*5/4 {
		t.Errorf("escalation grew the sort scratch %d -> %d, want at most resample jitter", scratchCap, c)
	}

	// Back on the clean path the workspace must reproduce the warm-up run
	// byte-for-byte (single-worker probing is deterministic).
	out, _, err = SemisortWS(&ws, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(out, ref) {
		t.Error("post-escalation warm call differs from the warm-up output")
	}
}

// A fault injected at a sampling-round boundary must abort the call
// cooperatively — error out through the non-retryable path — and leave
// the workspace reusable for a clean follow-up call.
func TestInjectedSampleRoundAbort(t *testing.T) {
	a := mkRecords(120000, 2000, 19)
	var ws Workspace

	// Occurrence 1 is the first top-up round: the pilot has run and the
	// loop's cross-round state (cumulative sample, densities) is live.
	// Counting scatter keeps the clean runs byte-comparable at procs > 1.
	cfg := func() *Config { return &Config{Procs: 2} }
	fault.Enable(fault.New(1).Arm(fault.SampleRound, 1, 1))
	_, _, err := sampledRun(&ws, a, cfg())
	fault.Disable()
	if err == nil {
		t.Fatal("semisort with injected sample-round fault succeeded, want error")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want wrapped fault.ErrInjected", err)
	}

	// The same workspace must complete a clean run bit-identical to a
	// fresh one: no mid-loop sampling state may leak across calls.
	out, stats, err := sampledRun(&ws, a, cfg())
	if err != nil {
		t.Fatalf("reused workspace after injected abort: %v", err)
	}
	checkCounts(t, "post-abort reuse", a, out)
	fresh, freshStats, err := sampledRun(nil, a, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(out, fresh) {
		t.Error("post-abort reuse output differs from a fresh workspace")
	}
	if stats.SampleRounds != freshStats.SampleRounds || stats.SampleSize != freshStats.SampleSize {
		t.Errorf("post-abort sampling shape %d/%d differs from fresh %d/%d",
			stats.SampleRounds, stats.SampleSize, freshStats.SampleRounds, freshStats.SampleSize)
	}
}

// The injected round fault must also compose with cancellation
// semantics: a mid-pilot abort (occurrence 0) dies before any draw.
func TestInjectedSampleRoundAbortAtPilot(t *testing.T) {
	a := mkRecords(120000, 2000, 23)
	withInjector(t, fault.New(1).Arm(fault.SampleRound, 0, 1))
	_, stats, err := sampledRun(nil, a, &Config{Procs: 2})
	if err == nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want wrapped fault.ErrInjected", err)
	}
	if stats.SampleSize != 0 {
		t.Errorf("SampleSize = %d after pilot abort, want 0", stats.SampleSize)
	}
}

// Adaptive and one-shot sampling must agree on the semisort result's
// validity across tolerance and round-cap settings (the differential
// matrix covers value-level equivalence; this pins config plumbing).
func TestAdaptiveConfigSweep(t *testing.T) {
	a := mkRecords(80000, 1000, 29)
	for _, tol := range []float64{0.25, 0.5, 1.0} {
		for _, rounds := range []int{1, 2, 4} {
			name := fmt.Sprintf("tol=%v/rounds=%d", tol, rounds)
			out, stats, err := Semisort(a, &Config{
				Procs: 2, SampleTolerance: tol, SampleMaxRounds: rounds,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkSemisorted(t, name, a, out)
			if stats.SampleRounds > rounds {
				t.Errorf("%s: SampleRounds = %d over cap", name, stats.SampleRounds)
			}
		}
	}
}

// A plain semisort under the planner is one kernel call: no Phase 1 (no
// sample, no sampling-round span), one fresh attempt, and the output is
// exactly the radix kernel's grouping of the input, on light and on
// duplicate-heavy inputs alike. The kernel's heavy keys are the call's.
func TestDefaultRouteSkipsSampling(t *testing.T) {
	const n = 1 << 17
	for _, spec := range []distgen.Spec{
		{Kind: distgen.Uniform, Param: n},
		{Kind: distgen.Exponential, Param: n / 1000},
		{Kind: distgen.HeavyHead, Param: 4},
	} {
		a := distgen.Generate(2, n, spec, 3)
		for _, procs := range []int{1, 2} {
			label := fmt.Sprintf("%v/procs=%d", spec, procs)
			var col obsv.Collector
			out, stats, err := Semisort(a, &Config{Procs: procs, Seed: 5, Observer: &col})
			if err != nil {
				t.Fatal(err)
			}
			checkSemisorted(t, label, a, out)
			if stats.ScatterStrategy != "dovetail" || stats.SampleRounds != 0 || stats.SampleSize != 0 {
				t.Fatalf("%s: route %q with %d sampling rounds of %d keys, want dovetail with none",
					label, stats.ScatterStrategy, stats.SampleRounds, stats.SampleSize)
			}
			if atts := col.Attempts(); len(atts) != 1 || atts[0].Kind != obsv.AttemptFresh {
				t.Fatalf("%s: attempts %+v, want one fresh attempt", label, atts)
			}
			if rs := roundSpansOf(col.Spans(), 0); len(rs) != 0 {
				t.Errorf("%s: %d sampling-round spans on the kernel route", label, len(rs))
			}
			want := append([]rec.Record(nil), a...)
			var dov sortint.DovetailStats
			if err := sortint.DovetailSemisort(procs, want, &dov); err != nil {
				t.Fatal(err)
			}
			if !sameRecords(out, want) {
				t.Errorf("%s: default output differs from the radix kernel's", label)
			}
			if stats.HeavyKeys != int(dov.HeavyKeysPlaced) || stats.HeavyRecords != int(dov.HeavyRecords) {
				t.Errorf("%s: %d heavy keys holding %d records, the kernel placed %d holding %d",
					label, stats.HeavyKeys, stats.HeavyRecords, dov.HeavyKeysPlaced, dov.HeavyRecords)
			}
		}
	}
}

// The sampled routes consume the full estimator and keep running the
// adaptive loop past the pilot: the counting scatter under a fused
// histogram and a fused reduce, and the probing scatter.
func TestSampledRoutesRunFullLoop(t *testing.T) {
	const n = 1 << 17
	a := distgen.Generate(2, n, distgen.Spec{Kind: distgen.Exponential, Param: n / 1000}, 7)
	for _, tc := range []struct {
		name  string
		run   func(*Config) (Stats, error)
		strat ScatterStrategy
	}{
		{"counting", func(c *Config) (Stats, error) { _, st, err := sampledRun(nil, a, c); return st, err }, ScatterAuto},
		{"fused", func(c *Config) (Stats, error) { _, _, st, err := ReduceShared(nil, a, c, sumSpec()); return st, err }, ScatterAuto},
		{"probing", func(c *Config) (Stats, error) { _, st, err := Semisort(a, c); return st, err }, ScatterProbing},
	} {
		stats, err := tc.run(&Config{Procs: 2, Seed: 9, ScatterStrategy: tc.strat})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if stats.SampleRounds < 2 {
			t.Errorf("%s: %d sampling rounds (route %q), want the full loop (>= 2)",
				tc.name, stats.SampleRounds, stats.ScatterStrategy)
		}
	}
}
