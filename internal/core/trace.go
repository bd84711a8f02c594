package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/fault"
	"repro/internal/obsv"
)

// tracer emits one semisort call's obsv events and pprof labels. With a
// nil observer and labels off every probe is a nil/bool check — no time
// reads, no allocation — so the uninstrumented hot path is unaffected.
type tracer struct {
	obs    obsv.Observer
	epoch  time.Time // call start; span offsets are relative to it
	ctx    context.Context
	labels bool
}

func newTracer(c *Config) tracer {
	t := tracer{obs: c.Observer, ctx: c.Context, labels: c.PprofLabels}
	if t.obs != nil {
		t.epoch = time.Now()
	}
	return t
}

// phaseStart announces a phase; always balanced by span() on the same
// goroutine (the runtime/trace region contract).
func (t *tracer) phaseStart(attempt int, ph obsv.Phase) {
	if t.obs != nil {
		t.obs.PhaseStart(attempt, ph)
	}
}

// span closes the phase opened by phaseStart, started at wall-clock
// start, with the given outcome.
func (t *tracer) span(attempt int, ph obsv.Phase, start time.Time, outcome string) {
	if t.obs == nil {
		return
	}
	t.obs.PhaseEnd(obsv.Span{
		Attempt:  attempt,
		Phase:    ph,
		Start:    start.Sub(t.epoch),
		Duration: time.Since(start),
		Outcome:  outcome,
	})
}

// scatterSpan closes a scatter span like span(), additionally attaching
// the strategy attribute.
func (t *tracer) scatterSpan(attempt int, start time.Time, outcome string, strat ScatterStrategy) {
	if t.obs == nil {
		return
	}
	t.obs.PhaseEnd(obsv.Span{
		Attempt:  attempt,
		Phase:    obsv.PhaseScatter,
		Start:    start.Sub(t.epoch),
		Duration: time.Since(start),
		Outcome:  outcome,
		Strategy: strat.String(),
	})
}

// localSortSpan closes a Phase 4 span like span() — PhaseLocalSort on a
// plain semisort, PhaseReduce on a fused reduce — additionally attaching
// the kernel name and the number of size-aware bucket ranges the
// schedule used.
func (t *tracer) localSortSpan(attempt int, ph obsv.Phase, start time.Time, outcome string, kernel string, ranges int64) {
	if t.obs == nil {
		return
	}
	t.obs.PhaseEnd(obsv.Span{
		Attempt:  attempt,
		Phase:    ph,
		Start:    start.Sub(t.epoch),
		Duration: time.Since(start),
		Outcome:  outcome,
		Kernel:   kernel,
		Ranges:   ranges,
	})
}

func (t *tracer) attemptStart(a obsv.Attempt) {
	if t.obs != nil {
		t.obs.AttemptStart(a)
	}
}

func (t *tracer) attemptEnd(e obsv.AttemptEnd) {
	if t.obs != nil {
		t.obs.AttemptEnd(e)
	}
}

// labeled runs fn under the pprof label set {"semisort_phase": phase}
// when Config.PprofLabels is on, so goroutines forked inside fn (the
// phase's parallel workers inherit their creator's labels) show up
// attributed to the phase in CPU profiles.
func (t *tracer) labeled(phase string, fn func()) {
	if !t.labels {
		fn()
		return
	}
	ctx := t.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	pprof.Do(ctx, pprof.Labels("semisort_phase", phase), func(context.Context) { fn() })
}

// labeledPhase is labeled for the pipeline stages: f is a method
// expression over the plan rather than a closure, so with labels off the
// probe is a plain call and the steady-state path allocates nothing
// (closures handed to pprof.Do escape; method expressions are
// compile-time constants).
func (t *tracer) labeledPhase(pl *plan, phase string, f func(*plan) error) error {
	if !t.labels {
		return f(pl)
	}
	ctx := t.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	pprof.Do(ctx, pprof.Labels("semisort_phase", phase), func(context.Context) { err = f(pl) })
	return err
}

// phaseGate marks one of the five phase boundaries: it gives the fault
// injector its cancellation hook and reports a pending cancellation.
func phaseGate(ctx context.Context, phase string) error {
	fault.Should(fault.PhaseBoundary)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("semisort: canceled at %s: %w", phase, err)
		}
	}
	return nil
}
