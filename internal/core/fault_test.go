package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/distgen"
	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/rec"
)

// withInjector enables in for the duration of the test body and guarantees
// the process-wide injector is removed afterwards even on Fatal.
func withInjector(t *testing.T, in *fault.Injector) {
	t.Helper()
	fault.Enable(in)
	t.Cleanup(fault.Disable)
}

// checkNoLeak asserts the goroutine count settles back to within a small
// slack of base.
func checkNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestInjectedOverflowRetries(t *testing.T) {
	base := runtime.NumGoroutine()
	a := mkRecords(30000, 100, 7)
	withInjector(t, fault.New(1).Arm(fault.ScatterOverflow, 0, 2))
	// Pinned to probing: the injected faults model probe-slack exhaustion,
	// which the default dovetail route lacks.
	out, stats, err := Semisort(a, &Config{Procs: 2, ScatterStrategy: ScatterProbing})
	if err != nil {
		t.Fatalf("semisort after 2 injected overflows: %v", err)
	}
	checkSemisorted(t, "injected overflow", a, out)
	if stats.Retries != 2 || stats.Attempts != 3 {
		t.Errorf("Retries=%d Attempts=%d, want 2 and 3", stats.Retries, stats.Attempts)
	}
	if stats.OverflowedBuckets < 2 || stats.OverflowDeficit < 2 {
		t.Errorf("OverflowedBuckets=%d OverflowDeficit=%d, want >= 2 each",
			stats.OverflowedBuckets, stats.OverflowDeficit)
	}
	if stats.FallbackUsed {
		t.Error("FallbackUsed = true, but the third attempt should have succeeded")
	}
	checkNoLeak(t, base)
}

func TestInjectedProbeSaturationRecovery(t *testing.T) {
	base := runtime.NumGoroutine()
	a := mkRecords(30000, 100, 9)
	withInjector(t, fault.New(1).Arm(fault.ProbeSaturation, 0, 1))
	out, stats, err := Semisort(a, &Config{Procs: 2, ScatterStrategy: ScatterProbing})
	if err != nil {
		t.Fatalf("semisort after injected probe saturation: %v", err)
	}
	checkSemisorted(t, "probe saturation", a, out)
	if stats.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1", stats.Retries)
	}
	if stats.OverflowedBuckets < 1 {
		t.Errorf("OverflowedBuckets = %d, want >= 1", stats.OverflowedBuckets)
	}
	if stats.FallbackUsed {
		t.Error("FallbackUsed = true for a recoverable saturation")
	}
	checkNoLeak(t, base)
}

func TestInjectedExhaustionFallsBack(t *testing.T) {
	base := runtime.NumGoroutine()
	a := mkRecords(20000, 50, 11)
	withInjector(t, fault.New(1).Arm(fault.ScatterOverflow, 0, 100))
	out, stats, err := Semisort(a, &Config{Procs: 2, ScatterStrategy: ScatterProbing})
	if err != nil {
		t.Fatalf("exhaustion with fallback enabled must succeed: %v", err)
	}
	checkSemisorted(t, "exhaustion fallback", a, out)
	if !stats.FallbackUsed {
		t.Error("FallbackUsed = false after every attempt overflowed")
	}
	if stats.Attempts != maxAttempts {
		t.Errorf("Attempts = %d, want %d", stats.Attempts, maxAttempts)
	}
	checkNoLeak(t, base)
}

func TestInjectedExhaustionDisableFallback(t *testing.T) {
	a := mkRecords(20000, 50, 11)
	withInjector(t, fault.New(1).Arm(fault.ScatterOverflow, 0, 100))
	out, _, err := Semisort(a, &Config{Procs: 2, DisableFallback: true, ScatterStrategy: ScatterProbing})
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
	if out != nil {
		t.Error("output non-nil alongside an error")
	}
}

func TestSlotCapFallsBack(t *testing.T) {
	a := mkRecords(30000, 100, 13)
	// A one-record cap, below the radix kernel's child scratch: the
	// attempt must abort before the scratch grows and degrade to the
	// sequential fallback.
	out, stats, err := Semisort(a, &Config{Procs: 2, MaxSlotBytes: rec.RecordSize})
	if err != nil {
		t.Fatalf("slot-capped semisort: %v", err)
	}
	checkSemisorted(t, "slot cap", a, out)
	if !stats.FallbackUsed {
		t.Error("FallbackUsed = false under an unmeetable slot cap")
	}
	if stats.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (cap abort is not retryable)", stats.Attempts)
	}

	_, _, err = Semisort(a, &Config{Procs: 2, MaxSlotBytes: rec.RecordSize, DisableFallback: true})
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("capped + DisableFallback err = %v, want ErrOverflow", err)
	}
}

// The sampled pipeline (probing here) has five phase gates; the
// planner's dovetail route is one kernel call behind a single gate, at
// the local sort. A cancellation fired at any of them must abort the
// call with context.Canceled.
func TestCancellationAtEveryPhaseBoundary(t *testing.T) {
	base := runtime.NumGoroutine()
	a := mkRecords(30000, 100, 17)
	for _, route := range []struct {
		strat  ScatterStrategy
		phases []string
	}{
		{ScatterProbing, []string{"sampling", "bucket construction", "scatter", "local sort", "pack"}},
		{ScatterAuto, []string{"local sort"}},
	} {
		for k, name := range route.phases {
			ctx, cancel := context.WithCancel(context.Background())
			inj := fault.New(1).Arm(fault.PhaseBoundary, k, 1)
			inj.OnFire(fault.PhaseBoundary, cancel)
			fault.Enable(inj)
			out, _, err := Semisort(a, &Config{Procs: 2, Context: ctx, ScatterStrategy: route.strat})
			fault.Disable()
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: cancel at gate %d (%s): err = %v, want context.Canceled", route.strat, k, name, err)
			}
			if out != nil {
				t.Errorf("%v: cancel at gate %d (%s): output non-nil", route.strat, k, name)
			}
			if fired := inj.Fired(fault.PhaseBoundary); fired != 1 {
				t.Errorf("%v: gate %d fired %d times, want 1", route.strat, k, fired)
			}
		}
	}
	checkNoLeak(t, base)
}

func TestInjectedWorkerPanicSurfacesAsError(t *testing.T) {
	base := runtime.NumGoroutine()
	// At least 2^15 records, so the default route's kernel runs its
	// passes on the parallel runtime, where the panic is injected.
	a := mkRecords(1<<16, 100, 19)
	withInjector(t, fault.New(1).Arm(fault.WorkerPanic, 0, 1))
	out, _, err := Semisort(a, &Config{Procs: 2})
	if err == nil {
		t.Fatal("injected worker panic produced no error")
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a wrapped *parallel.PanicError", err)
	}
	if pe.Value != fault.PanicValue {
		t.Errorf("panic value = %v, want the injected sentinel", pe.Value)
	}
	if out != nil {
		t.Error("output non-nil alongside a panic error")
	}
	checkNoLeak(t, base)
}

// The counting scatter (every fused reduce) has no probe slack to
// exhaust, so the overflow and saturation points must never even be
// consulted on that path, and every overflow statistic must stay zero.
func TestCountingIgnoresScatterOverflow(t *testing.T) {
	a := mkRecords(30000, 100, 7)
	count, _, vals := refAgg(a)
	inj := fault.New(1).
		Arm(fault.ScatterOverflow, 0, 100).
		Arm(fault.ProbeSaturation, 0, 100)
	withInjector(t, inj)
	out, reps, stats, err := HistogramShared(nil, a, &Config{Procs: 2})
	if err != nil {
		t.Fatalf("counting histogram under armed overflow faults: %v", err)
	}
	checkReduced(t, "counting vs overflow faults", out, reps, count, vals)
	if stats.ScatterStrategy != "counting" {
		t.Fatalf("ScatterStrategy = %q, want counting", stats.ScatterStrategy)
	}
	if stats.Attempts != 1 || stats.Retries != 0 {
		t.Errorf("Attempts=%d Retries=%d, want 1 and 0", stats.Attempts, stats.Retries)
	}
	if stats.OverflowedBuckets != 0 || stats.OverflowDeficit != 0 {
		t.Errorf("OverflowedBuckets=%d OverflowDeficit=%d, want 0 each",
			stats.OverflowedBuckets, stats.OverflowDeficit)
	}
	if stats.MaxProbeCluster != 0 {
		t.Errorf("MaxProbeCluster = %d, want 0 (counting path does not probe)", stats.MaxProbeCluster)
	}
	if f := inj.Fired(fault.ScatterOverflow); f != 0 {
		t.Errorf("ScatterOverflow fired %d times on the counting path", f)
	}
	if f := inj.Fired(fault.ProbeSaturation); f != 0 {
		t.Errorf("ProbeSaturation fired %d times on the counting path", f)
	}
}

// An explicit ScatterProbing run on an all-distinct input must drive the
// usual retry accounting under injected overflows; the default planner
// on the same input, with the same injector armed, must never reach the
// probing scatter, so the injector never fires and Attempts stays 1.
func TestAutoProbingOverflowAccounting(t *testing.T) {
	a := mkRecords(30000, 0, 37) // unique keys: no heavy duplication
	withInjector(t, fault.New(1).Arm(fault.ScatterOverflow, 0, 2))
	out, stats, err := Semisort(a, &Config{Procs: 2, ScatterStrategy: ScatterProbing})
	if err != nil {
		t.Fatalf("probing semisort after 2 injected overflows: %v", err)
	}
	checkSemisorted(t, "probing overflow accounting", a, out)
	if stats.ScatterStrategy != "probing" {
		t.Fatalf("ScatterStrategy = %q, want probing", stats.ScatterStrategy)
	}
	if stats.Retries != 2 || stats.Attempts != 3 {
		t.Errorf("Retries=%d Attempts=%d, want 2 and 3", stats.Retries, stats.Attempts)
	}
	if stats.OverflowedBuckets < 2 {
		t.Errorf("OverflowedBuckets = %d, want >= 2", stats.OverflowedBuckets)
	}

	inj := fault.New(1).Arm(fault.ScatterOverflow, 0, 2)
	withInjector(t, inj)
	out, stats, err = Semisort(a, &Config{Procs: 2})
	if err != nil {
		t.Fatalf("default semisort with ScatterOverflow armed: %v", err)
	}
	checkSemisorted(t, "default route with overflow armed", a, out)
	if stats.ScatterStrategy == "probing" {
		t.Fatalf("default config resolved to probing on distinct keys")
	}
	if stats.Attempts != 1 || stats.Retries != 0 || stats.OverflowedBuckets != 0 {
		t.Errorf("Attempts=%d Retries=%d OverflowedBuckets=%d, want 1, 0, 0",
			stats.Attempts, stats.Retries, stats.OverflowedBuckets)
	}
	if f := inj.Fired(fault.ScatterOverflow); f != 0 {
		t.Errorf("ScatterOverflow fired %d times on the default route", f)
	}
}

// A worker panic anywhere in a counting-route run (a fused reduce) must
// surface as a wrapped PanicError with no output and no leaked
// goroutines.
func TestCountingWorkerPanic(t *testing.T) {
	for _, first := range []int{0, 1} {
		base := runtime.NumGoroutine()
		a := mkRecords(30000, 100, 19)
		withInjector(t, fault.New(1).Arm(fault.WorkerPanic, first, 1))
		out, _, _, err := ReduceShared(nil, a, &Config{Procs: 2}, sumSpec())
		fault.Disable()
		if err == nil {
			t.Fatalf("occurrence %d: injected worker panic produced no error", first)
		}
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("occurrence %d: err = %v, want a wrapped *parallel.PanicError", first, err)
		}
		if out != nil {
			t.Errorf("occurrence %d: output non-nil alongside a panic error", first)
		}
		checkNoLeak(t, base)
	}
}

// The scratch cap applies to the counting plan too: an unmeetable
// MaxSlotBytes aborts before allocation and degrades to the fallback in a
// single attempt, exactly like the probing path's slot cap.
func TestCountingSlotCapFallsBack(t *testing.T) {
	a := mkRecords(30000, 100, 13)
	_, sum, vals := refAgg(a)
	out, reps, stats, err := ReduceShared(nil, a, &Config{Procs: 2, MaxSlotBytes: 512}, sumSpec())
	if err != nil {
		t.Fatalf("scratch-capped counting reduce: %v", err)
	}
	checkReduced(t, "counting scratch cap", out, reps, sum, vals)
	if !stats.FallbackUsed {
		t.Error("FallbackUsed = false under an unmeetable scratch cap")
	}
	if stats.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (cap abort is not retryable)", stats.Attempts)
	}

	_, _, _, err = ReduceShared(nil, a, &Config{Procs: 2, MaxSlotBytes: 512, DisableFallback: true}, sumSpec())
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("capped + DisableFallback err = %v, want ErrOverflow", err)
	}
}

// The counting route's light staging area (24 B per light record) is its
// largest scratch, so the cap must price it: a histogram over 2^18
// uniform keys needs ~1.1 MiB before pass 1 and ~7 MiB with the staging
// area, and a 2 MiB cap must send it to the fallback (or to ErrOverflow)
// after pass 1, before anything is staged.
func TestCountingSlotCapPricesStaging(t *testing.T) {
	const n = 1 << 18
	a := distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: n}, 3)
	var col obsv.Collector
	cfg := &Config{Procs: 2, MaxSlotBytes: 2 << 20, Observer: &col}
	out, _, stats, err := HistogramShared(nil, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, "staging cap", a, append([]rec.Record(nil), out...))
	if !stats.FallbackUsed || stats.Attempts != 1 {
		t.Errorf("FallbackUsed = %v after %d attempts, want the fallback after 1", stats.FallbackUsed, stats.Attempts)
	}
	var scatter []obsv.Span
	for _, s := range col.Spans() {
		if s.Phase == obsv.PhaseScatter {
			scatter = append(scatter, s)
		}
	}
	if len(scatter) != 1 || scatter[0].Outcome != obsv.OutcomeCap {
		t.Errorf("scatter spans %+v, want one ending in %q", scatter, obsv.OutcomeCap)
	}

	cfg = &Config{Procs: 2, MaxSlotBytes: 2 << 20, DisableFallback: true}
	if _, _, _, err := HistogramShared(nil, a, cfg); !errors.Is(err, ErrOverflow) {
		t.Fatalf("capped + DisableFallback err = %v, want ErrOverflow", err)
	}
}

// TestCountingSlotCapPricesArenas checks that the cap also prices the
// Phase 4 reduce arenas: one light bucket holding every record of a
// 2^18-record uniform input needs a 2^19-slot naming table and three
// 2^18-entry buffers (12 MiB) on top of about 7 MiB of staging, so an
// 8 MiB cap must send the call to the fallback (or ErrOverflow) before
// pass 2.
func TestCountingSlotCapPricesArenas(t *testing.T) {
	const n = 1 << 18
	a := distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: n}, 3)
	var col obsv.Collector
	cfg := &Config{Procs: 2, MaxLightBuckets: 1, MaxSlotBytes: 8 << 20, Observer: &col}
	out, _, stats, err := HistogramShared(nil, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, "arena cap", a, append([]rec.Record(nil), out...))
	if !stats.FallbackUsed || stats.Attempts != 1 {
		t.Errorf("FallbackUsed = %v after %d attempts, want the fallback after 1", stats.FallbackUsed, stats.Attempts)
	}
	var scatter []obsv.Span
	for _, s := range col.Spans() {
		if s.Phase == obsv.PhaseScatter {
			scatter = append(scatter, s)
		}
	}
	if len(scatter) != 1 || scatter[0].Outcome != obsv.OutcomeCap {
		t.Errorf("scatter spans %+v, want one ending in %q", scatter, obsv.OutcomeCap)
	}

	cfg = &Config{Procs: 2, MaxLightBuckets: 1, MaxSlotBytes: 8 << 20, DisableFallback: true}
	if _, _, _, err := HistogramShared(nil, a, cfg); !errors.Is(err, ErrOverflow) {
		t.Fatalf("capped + DisableFallback err = %v, want ErrOverflow", err)
	}
}

// A clean counting run's stats must satisfy the path's invariants.
func TestCountingStatsInvariants(t *testing.T) {
	a := mkRecords(30000, 100, 41)
	_, sum, vals := refAgg(a)
	out, reps, stats, err := ReduceShared(nil, a, &Config{Procs: 2}, sumSpec())
	if err != nil {
		t.Fatalf("counting reduce: %v", err)
	}
	checkReduced(t, "counting invariants", out, reps, sum, vals)
	if stats.Attempts != stats.Retries+1 {
		t.Errorf("Attempts=%d Retries=%d, want Attempts == Retries+1", stats.Attempts, stats.Retries)
	}
	if stats.ScatterStrategy != "counting" {
		t.Errorf("ScatterStrategy = %q, want counting", stats.ScatterStrategy)
	}
	if stats.SlotsAllocated != len(a) {
		t.Errorf("SlotsAllocated = %d, want n=%d (counting places at exact offsets)",
			stats.SlotsAllocated, len(a))
	}
	if stats.HeavyRecords == 0 {
		t.Error("HeavyRecords = 0, want > 0 on a 100-key input")
	}
	if stats.MaxProbeCluster != 0 {
		t.Errorf("MaxProbeCluster = %d, want 0", stats.MaxProbeCluster)
	}
}

// The dovetail route, like the counting scatter, has no probe slack and
// no overflow: the probing-only fault points must never be consulted,
// and a clean run's stats must satisfy the path's invariants.
func TestDovetailStatsInvariants(t *testing.T) {
	a := mkRecords(30000, 0, 43) // unique keys: the radix route
	inj := fault.New(1).
		Arm(fault.ScatterOverflow, 0, 100).
		Arm(fault.ProbeSaturation, 0, 100)
	withInjector(t, inj)
	out, stats, err := Semisort(a, &Config{Procs: 2, ScatterStrategy: ScatterDovetail})
	if err != nil {
		t.Fatalf("dovetail semisort under armed overflow faults: %v", err)
	}
	checkSemisorted(t, "dovetail vs overflow faults", a, out)
	if stats.ScatterStrategy != "dovetail" {
		t.Fatalf("ScatterStrategy = %q, want dovetail", stats.ScatterStrategy)
	}
	if stats.Attempts != 1 || stats.Retries != 0 || stats.FallbackUsed {
		t.Errorf("Attempts=%d Retries=%d FallbackUsed=%v, want 1/0/false", stats.Attempts, stats.Retries, stats.FallbackUsed)
	}
	if stats.OverflowedBuckets != 0 || stats.OverflowDeficit != 0 || stats.MaxProbeCluster != 0 {
		t.Errorf("overflow/probe stats non-zero on the dovetail path: %+v", stats)
	}
	if stats.SlotsAllocated != len(a) {
		t.Errorf("SlotsAllocated = %d, want n=%d (dovetail writes straight to output)",
			stats.SlotsAllocated, len(a))
	}
	if stats.PlannerRoutes.ScatterNodes != 0 || stats.PlannerRoutes.RadixNodes == 0 {
		t.Errorf("unique keys routed wrong: %+v", stats.PlannerRoutes)
	}
	if f := inj.Fired(fault.ScatterOverflow) + inj.Fired(fault.ProbeSaturation); f != 0 {
		t.Errorf("probing fault points fired %d times on the dovetail path", f)
	}
}

// An injected fault at a radix recursion node must abort the attempt with
// a wrapped ErrInjected — not retry (the dovetail path has no Las Vegas
// restart) and not fall back — and leave the workspace reusable.
func TestInjectedRadixNodeAborts(t *testing.T) {
	base := runtime.NumGoroutine()
	a := mkRecords(200000, 0, 47)
	for _, procs := range []int{1, 4} {
		ws := &Workspace{}
		inj := fault.New(1).Arm(fault.RadixNode, 0, 1)
		fault.Enable(inj)
		out, stats, err := SemisortWS(ws, a, &Config{Procs: procs, ScatterStrategy: ScatterDovetail})
		fault.Disable()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("procs=%d: err = %v, want wrapped ErrInjected", procs, err)
		}
		if out != nil {
			t.Errorf("procs=%d: output non-nil alongside an injected error", procs)
		}
		if inj.Fired(fault.RadixNode) != 1 {
			t.Errorf("procs=%d: RadixNode fired %d times, want 1", procs, inj.Fired(fault.RadixNode))
		}
		if stats.Attempts != 1 || stats.FallbackUsed {
			t.Errorf("procs=%d: Attempts=%d FallbackUsed=%v, want 1/false (not retryable)",
				procs, stats.Attempts, stats.FallbackUsed)
		}
		// The workspace must come back clean: a run with injection off
		// produces a correct grouping through the same buffers.
		out, stats, err = SemisortWS(ws, a, &Config{Procs: procs, ScatterStrategy: ScatterDovetail})
		if err != nil {
			t.Fatalf("procs=%d: clean run after injected abort: %v", procs, err)
		}
		checkSemisorted(t, "post-injection reuse", a, out)
		if stats.Retries != 0 || stats.FallbackUsed {
			t.Errorf("procs=%d: clean run shows recovery activity: %+v", procs, stats)
		}
	}
	checkNoLeak(t, base)
}

// Cancellation raised from inside the radix recursion (the RadixNode
// gate doubles as a pass-boundary context check) must surface as
// context.Canceled from the local-sort phase.
func TestDovetailCancellationMidRecursion(t *testing.T) {
	base := runtime.NumGoroutine()
	a := mkRecords(200000, 0, 53)
	for _, procs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		inj := fault.New(1).Arm(fault.RadixNode, 0, 1)
		inj.OnFire(fault.RadixNode, cancel)
		fault.Enable(inj)
		out, _, err := Semisort(a, &Config{Procs: procs, Context: ctx, ScatterStrategy: ScatterDovetail})
		fault.Disable()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		if out != nil {
			t.Errorf("procs=%d: output non-nil after cancellation", procs)
		}
	}
	checkNoLeak(t, base)
}

// A worker panic inside a dovetail run (a parallel pass of the radix
// kernel or its fork–join over children) must surface as a wrapped PanicError with
// no output and no leaked goroutines, exactly like the other paths.
func TestDovetailWorkerPanic(t *testing.T) {
	for _, first := range []int{0, 2} {
		base := runtime.NumGoroutine()
		a := mkRecords(200000, 0, 19)
		withInjector(t, fault.New(1).Arm(fault.WorkerPanic, first, 1))
		out, _, err := Semisort(a, &Config{Procs: 4, ScatterStrategy: ScatterDovetail})
		fault.Disable()
		if err == nil {
			t.Fatalf("occurrence %d: injected worker panic produced no error", first)
		}
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("occurrence %d: err = %v, want a wrapped *parallel.PanicError", first, err)
		}
		if out != nil {
			t.Errorf("occurrence %d: output non-nil alongside a panic error", first)
		}
		checkNoLeak(t, base)
	}
}

// The scratch cap prices the radix kernel's child scratch once the top
// pass has fixed the children: a one-record MaxSlotBytes, below any
// child of two records, aborts before the scratch grows and degrades to
// the fallback in a single attempt.
func TestDovetailSlotCapFallsBack(t *testing.T) {
	a := mkRecords(30000, 0, 13)
	out, stats, err := Semisort(a, &Config{Procs: 2, MaxSlotBytes: rec.RecordSize, ScatterStrategy: ScatterDovetail})
	if err != nil {
		t.Fatalf("scratch-capped dovetail semisort: %v", err)
	}
	checkSemisorted(t, "dovetail scratch cap", a, out)
	if !stats.FallbackUsed {
		t.Error("FallbackUsed = false under an unmeetable scratch cap")
	}
	if stats.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (cap abort is not retryable)", stats.Attempts)
	}

	_, _, err = Semisort(a, &Config{Procs: 2, MaxSlotBytes: rec.RecordSize, ScatterStrategy: ScatterDovetail, DisableFallback: true})
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("capped + DisableFallback err = %v, want ErrOverflow", err)
	}
}

func TestRecoveryDisabledInjectorIsClean(t *testing.T) {
	// A run right after injection is disabled must behave as if the fault
	// package were never there.
	a := mkRecords(20000, 100, 23)
	out, stats, err := Semisort(a, &Config{Procs: 2})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	checkSemisorted(t, "clean run", a, out)
	if stats.Retries != 0 || stats.FallbackUsed || stats.OverflowedBuckets != 0 {
		t.Errorf("clean run shows recovery activity: %+v", stats)
	}
}
