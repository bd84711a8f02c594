package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/distgen"
	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/rec"
	"repro/internal/seqsemi"
)

// sameBacking reports whether two slices share their first element.
func sameBacking(x, y []rec.Record) bool {
	return len(x) > 0 && len(y) > 0 && &x[0] == &y[0]
}

// The sequential fallback honors the caller's buffer like a pack does:
// SemisortInto returns dst, and back-to-back Shared calls (plain and
// fused) on one workspace return the same backing array. A one-record
// MaxSlotBytes sends every route to the fallback: it is below any
// scatter's scratch and below the radix kernel's child scratch.
func TestFallbackKeepsCallerBuffer(t *testing.T) {
	a := mkRecords(5000, 300, 21)
	count, _, vals := refAgg(a)
	for _, s := range []ScatterStrategy{ScatterAuto, ScatterCounting, ScatterDovetail, ScatterProbing} {
		cfg := &Config{Procs: 2, ScatterStrategy: s, MaxSlotBytes: rec.RecordSize}
		dst := make([]rec.Record, len(a)+7)
		out, stats, err := SemisortInto(nil, dst, a, cfg)
		if err != nil || !stats.FallbackUsed {
			t.Fatalf("%v into: err=%v FallbackUsed=%v", s, err, stats.FallbackUsed)
		}
		checkSemisorted(t, s.String()+" into", a, out)
		if !sameBacking(out, dst) {
			t.Errorf("%v: SemisortInto fallback did not write into dst", s)
		}

		ws := &Workspace{}
		first, _, err := SemisortShared(ws, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		second, _, err := SemisortShared(ws, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkSemisorted(t, s.String()+" shared", a, second)
		if !sameBacking(first, second) {
			t.Errorf("%v: two Shared fallbacks returned different backing arrays", s)
		}

		fws := &Workspace{}
		fo1, _, _, err := HistogramShared(fws, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fo2, reps, fstats, err := HistogramShared(fws, a, cfg)
		if err != nil || !fstats.FallbackUsed {
			t.Fatalf("%v fused: err=%v FallbackUsed=%v", s, err, fstats.FallbackUsed)
		}
		checkReduced(t, s.String()+" fused", fo2, reps, count, vals)
		if !sameBacking(fo1, fo2) {
			t.Errorf("%v: two fused Shared fallbacks returned different backing arrays", s)
		}
	}
}

// bytesPerRun is the heap bytes f allocates per run, averaged over runs.
func bytesPerRun(runs int, f func()) float64 {
	f() // warm up
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// A fallback with no caller buffer allocates one output: on a warm
// workspace it allocates what seqsemi.TwoPhase does and not a second
// n-record output, also on the dovetail route, whose cap trips only
// after its output is bound (the fallback then sorts into that output).
func TestFallbackAllocatesOneOutput(t *testing.T) {
	const n, half = 1 << 16, 1 << 16 * 16 / 2 // half an n-record output
	a := mkRecords(n, 4000, 23)
	seq := bytesPerRun(4, func() { seqsemi.TwoPhase(a) })
	for _, s := range []ScatterStrategy{ScatterAuto, ScatterCounting, ScatterDovetail, ScatterProbing} {
		cfg := &Config{Procs: 1, ScatterStrategy: s, MaxSlotBytes: rec.RecordSize}
		ws := &Workspace{}
		var stats Stats
		got := bytesPerRun(4, func() {
			var err error
			if _, stats, err = SemisortWS(ws, a, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if !stats.FallbackUsed {
			t.Fatalf("%v: fallback not used", s)
		}
		if extra := got - seq; extra > half {
			t.Errorf("%v: fallback allocates %.0f B per call, %.0f B over TwoPhase's %.0f (bound %d)",
				s, got, extra, seq, half)
		}
	}
}

// attemptKinds lists a trace's AttemptStart kinds in order.
func attemptKinds(col *obsv.Collector) []string {
	var kinds []string
	for _, at := range col.Attempts() {
		kinds = append(kinds, at.Kind)
	}
	return kinds
}

// The probing route's one recovery rule, pinned: three injected
// overflows, each naming one deficient bucket, each restart from Phase 1
// with a fresh sample and doubled slack, and the fourth attempt, the
// last one allowed, succeeds. Only a plain ScatterProbing call restarts:
// a fused reduce runs counting (TestReduceRetryNoDoubleCount).
func TestProbeLadderResample(t *testing.T) {
	a := mkRecords(30000, 200, 22)
	inj := fault.New(1).Arm(fault.ScatterOverflow, 0, 3)
	withInjector(t, inj)
	var col obsv.Collector
	cfg := &Config{Procs: 2, Slack: 1.5, ScatterStrategy: ScatterProbing, Observer: &col}
	out, stats, err := Semisort(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSemisorted(t, "restarts", a, out)
	want := []string{obsv.AttemptFresh, obsv.AttemptResample, obsv.AttemptResample, obsv.AttemptResample}
	if got := attemptKinds(&col); !slices.Equal(got, want) {
		t.Errorf("attempt kinds %v, want %v", got, want)
	}
	if stats.Attempts != 4 || stats.Retries != 3 || stats.FallbackUsed {
		t.Errorf("Attempts=%d Retries=%d FallbackUsed=%v, want 4, 3, false",
			stats.Attempts, stats.Retries, stats.FallbackUsed)
	}
	if stats.EffectiveSlack != 8*1.5 {
		t.Errorf("EffectiveSlack = %v, want %v", stats.EffectiveSlack, 8*1.5)
	}
	for i, at := range col.Attempts() {
		if want := 1.5 * float64(int(1)<<i); at.Slack != want {
			t.Errorf("attempt %d slack = %v, want %v", i, at.Slack, want)
		}
	}
	// Each injected overflow names bucket 0 with one failed placement.
	if stats.OverflowedBuckets != 3 || stats.OverflowDeficit != 3 {
		t.Errorf("OverflowedBuckets=%d OverflowDeficit=%d, want 3 and 3",
			stats.OverflowedBuckets, stats.OverflowDeficit)
	}
	if f := inj.Fired(fault.ScatterOverflow); f != 3 {
		t.Errorf("ScatterOverflow fired %d times, want 3", f)
	}
}

// The counting and dovetail routes read none of the probing knobs: Slack,
// and C leave their output and every non-timing
// Stats field byte-identical (EffectiveSlack only echoes Config.Slack).
// Each call runs exactly one attempt, and the probing fault points never
// fire.
func TestDefaultRoutesIgnoreProbingKnobs(t *testing.T) {
	const n = 20000
	inj := fault.New(1).Arm(fault.ScatterOverflow, 0, 1<<20).Arm(fault.ProbeSaturation, 0, 1<<20)
	withInjector(t, inj)
	shapes := []distgen.Spec{
		{Kind: distgen.Uniform, Param: n},
		{Kind: distgen.Exponential, Param: n / 1000},
		{Kind: distgen.Zipfian, Param: 1000},
		{Kind: distgen.HeavyHead, Param: 8},
	}
	knobs := []Config{
		{Slack: 0.001},
		{Slack: 8},
		{C: 0.0001},
		{Slack: 0.001, C: 0.0001},
	}
	type result struct {
		out   []rec.Record
		reps  []uint64
		stats Stats
	}
	run := func(t *testing.T, a []rec.Record, cfg Config, fused bool) result {
		t.Helper()
		var col obsv.Collector
		cfg.Observer = &col
		var r result
		var err error
		if fused {
			r.out, r.reps, r.stats, err = HistogramShared(&Workspace{}, a, &cfg)
		} else {
			r.out, r.stats, err = Semisort(a, &cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.stats.Attempts != 1 || len(col.Attempts()) != 1 {
			t.Fatalf("Attempts = %d with %d AttemptStart events, want 1 and 1",
				r.stats.Attempts, len(col.Attempts()))
		}
		r.out = append([]rec.Record(nil), r.out...)
		r.reps = append([]uint64(nil), r.reps...)
		r.stats.Phases, r.stats.Sched = PhaseTimes{}, obsv.SchedStats{}
		return r
	}
	for _, s := range []ScatterStrategy{ScatterAuto, ScatterCounting, ScatterDovetail} {
		for _, procs := range []int{1, 2} {
			for _, sh := range shapes {
				a := distgen.Generate(2, n, sh, 31)
				for _, fused := range []bool{false, true} {
					name := fmt.Sprintf("%v/p%d/%v/fused=%v", s, procs, sh.Kind, fused)
					t.Run(name, func(t *testing.T) {
						base := Config{Procs: procs, Seed: 5, ScatterStrategy: s}
						want := run(t, a, base, fused)
						for _, k := range knobs {
							cfg := base
							cfg.Slack, cfg.C = k.Slack, k.C
							got := run(t, a, cfg, fused)
							if slack := cfg.withDefaults().Slack; got.stats.EffectiveSlack != slack {
								t.Errorf("%+v: EffectiveSlack = %v, want the configured %v", k, got.stats.EffectiveSlack, slack)
							}
							got.stats.EffectiveSlack = want.stats.EffectiveSlack
							if got.stats != want.stats {
								t.Errorf("%+v: stats\n%+v\nwant\n%+v", k, got.stats, want.stats)
							}
							if !slices.Equal(got.out, want.out) {
								t.Errorf("%+v: output differs", k)
							}
							if !slices.Equal(got.reps, want.reps) {
								t.Errorf("%+v: representatives differ", k)
							}
						}
					})
				}
			}
		}
	}
	if f := inj.Fired(fault.ScatterOverflow) + inj.Fired(fault.ProbeSaturation); f != 0 {
		t.Errorf("probing fault points fired %d times on the default routes", f)
	}
}
