package core

import (
	"fmt"
	"slices"
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

// Phase 1 is the paper's one stratified round: the probing route and
// both counting call kinds (histogram and reduce) draw exactly
// N/SampleRate keys in one round, at the default rate and at a rate that
// does not divide N, and the dovetail route draws none.
func TestOneShotSamplingLegacyShape(t *testing.T) {
	a := mkRecords(60000, 300, 5)
	for _, rate := range []int{0, 7} {
		want := len(a) / (&Config{SampleRate: rate}).withDefaults().SampleRate
		for _, tc := range []struct {
			name string
			run  func(*Config) (Stats, error)
		}{
			{"probing", func(c *Config) (Stats, error) {
				c.ScatterStrategy = ScatterProbing
				out, st, err := Semisort(a, c)
				checkSemisorted(t, "probing", a, out)
				return st, err
			}},
			{"histogram", func(c *Config) (Stats, error) {
				out, st, err := sampledRun(nil, a, c)
				checkCounts(t, "histogram", a, out)
				return st, err
			}},
			{"reduce", func(c *Config) (Stats, error) { _, _, st, err := ReduceShared(nil, a, c, sumSpec()); return st, err }},
		} {
			stats, err := tc.run(&Config{Procs: 2, SampleRate: rate})
			if err != nil {
				t.Fatalf("%s/rate=%d: %v", tc.name, rate, err)
			}
			if stats.SampleRounds != 1 || stats.SampleSize != want {
				t.Errorf("%s/rate=%d: %d rounds of %d keys, want 1 of exactly %d",
					tc.name, rate, stats.SampleRounds, stats.SampleSize, want)
			}
		}
	}
	_, stats, err := Semisort(a, &Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SampleRounds != 0 || stats.SampleSize != 0 {
		t.Errorf("dovetail: %d rounds of %d keys, want none", stats.SampleRounds, stats.SampleSize)
	}
}

// The sample must be byte-deterministic: the same sorted keys at Procs
// 1, 2 and 8 on both sampled routes (and, under the deterministic
// counting scatter, the same output). A Las Vegas restart draws a new
// sample, and attempt k's sample is the same at every Procs.
func TestAdaptiveSamplingProcDeterminism(t *testing.T) {
	a := mkRecords(150000, 2000, 13)
	var refOut []rec.Record
	var refSample []uint64
	for _, strat := range []ScatterStrategy{ScatterAuto, ScatterProbing} {
		for _, procs := range []int{1, 2, 8} {
			var ws Workspace
			cfg := &Config{Procs: procs, Seed: 3, ScatterStrategy: strat}
			var out []rec.Record
			var err error
			if strat == ScatterProbing {
				_, _, err = SemisortWS(&ws, a, cfg)
			} else {
				out, _, err = sampledRun(&ws, a, cfg)
			}
			if err != nil {
				t.Fatalf("%v/procs=%d: %v", strat, procs, err)
			}
			if refSample == nil {
				refSample = append([]uint64(nil), ws.sample...)
				refOut = out
				continue
			}
			if !slices.Equal(ws.sample, refSample) {
				t.Errorf("%v/procs=%d: sample differs from counting at procs=1", strat, procs)
			}
			if strat != ScatterProbing && !sameRecords(out, refOut) {
				t.Errorf("%v/procs=%d: output differs from procs=1", strat, procs)
			}
		}
	}

	// Two injected overflows send the probing route through two
	// restarts; each attempt's sample is captured as its scatter starts.
	var perProcs [][][]uint64
	for _, procs := range []int{1, 2, 8} {
		var ws Workspace
		var drawn [][]uint64
		withInjector(t, fault.New(1).Arm(fault.ScatterOverflow, 0, 2).OnFire(fault.ScatterOverflow, func() {
			drawn = append(drawn, append([]uint64(nil), ws.sample...))
		}))
		_, stats, err := SemisortWS(&ws, a, &Config{Procs: procs, Seed: 3, ScatterStrategy: ScatterProbing})
		fault.Disable()
		if err != nil {
			t.Fatal(err)
		}
		drawn = append(drawn, ws.sample)
		if stats.Attempts != 3 || stats.SampleRounds != 1 || len(drawn) != 3 {
			t.Fatalf("procs=%d: %d attempts, %d rounds, %d samples captured; want 3, 1, 3",
				procs, stats.Attempts, stats.SampleRounds, len(drawn))
		}
		if !slices.Equal(drawn[0], refSample) {
			t.Errorf("procs=%d: attempt 0's sample differs from the unretried call's", procs)
		}
		for k := 1; k < len(drawn); k++ {
			if slices.Equal(drawn[k], drawn[k-1]) {
				t.Errorf("procs=%d: attempt %d redrew attempt %d's sample, want a fresh one", procs, k, k-1)
			}
		}
		perProcs = append(perProcs, drawn)
	}
	for i, drawn := range perProcs[1:] {
		for k := range drawn {
			if !slices.Equal(drawn[k], perProcs[0][k]) {
				t.Errorf("procs index %d: attempt %d's sample differs from procs=1", i+1, k)
			}
		}
	}
}

// Regression for the dropped getSample second return: the sample sort's
// scratch buffer must come from (and stay in) the workspace, so repeated
// warm calls — including the restarts that resample mid-call —
// reuse both sample buffers instead of growing fresh ones.
func TestSampleBufferReuseAcrossAttempts(t *testing.T) {
	a := mkRecords(60000, 100, 17)
	var ws Workspace
	cfg := &Config{Procs: 1, Seed: 11, ScatterStrategy: ScatterProbing}
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

	// Restarts resample within one call (fresh draws, same buffers):
	// three injected overflows force three resample attempts before the
	// fourth succeeds. A resample's kept count jitters, so the buffers may
	// grow to fit — but only marginally, never like a from-scratch
	// allocation.
	withInjector(t, fault.New(1).Arm(fault.ScatterOverflow, 0, 3))
	out, stats, err := SemisortWS(&ws, a, cfg)
	fault.Disable()
	if err != nil {
		t.Fatalf("semisort with restarts: %v", err)
	}
	checkSemisorted(t, "restart reuse", a, out)
	if stats.Retries != 3 {
		t.Errorf("Retries = %d, want 3 resamples", stats.Retries)
	}
	if c := cap(ws.sample); c > sampCap*5/4 {
		t.Errorf("restarts grew the sample buffer %d -> %d, want at most resample jitter", sampCap, c)
	}
	if c := cap(ws.sampleScratch); c > scratchCap*5/4 {
		t.Errorf("restarts grew the sort scratch %d -> %d, want at most resample jitter", scratchCap, c)
	}

	// Back on the clean path the workspace must reproduce the warm-up run
	// byte-for-byte (single-worker probing is deterministic).
	out, _, err = SemisortWS(&ws, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(out, ref) {
		t.Error("post-restart warm call differs from the warm-up output")
	}
}

// A plain semisort under the planner is one kernel call: no Phase 1 (no
// sample and no sample span), one fresh attempt, and the output is
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
			if ps := phasesOf(col.Spans(), 0); len(ps) != len(dovetailPhases) {
				t.Errorf("%s: phases %v, want the kernel route's %v", label, ps, dovetailPhases)
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
