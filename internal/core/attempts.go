// The attempt driver: the Las Vegas conversion at the end of the paper's
// Section 3. Every call runs attempt 0. The counting and dovetail routes
// place records at exact offsets and cannot overflow, so only the probing
// route (a plain ScatterProbing call, resolveScatter), whose f(s)-sized
// buckets can, ever gets past it: an overflowed attempt restarts from
// Phase 1 with fresh randomness and doubled slack.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obsv"
	"repro/internal/rec"
	"repro/internal/seqsemi"
)

// maxAttempts bounds the probing route's Las Vegas attempts; once they
// are spent the call degrades to plan.fallback.
const maxAttempts = 4

// runAttempts runs up to maxAttempts attempts, by the paper's one rule:
// an attempt whose buckets overflow restarts from Phase 1 with fresh
// randomness (attempt k draws sample seed k) and doubled slack (kind
// "resample"). Exhaustion, or an attempt past Config.MaxSlotBytes,
// degrades to plan.fallback. c is the driver's own copy: its Slack
// doubles on every restart.
func runAttempts(ws *Workspace, dst, a []rec.Record, c Config, tr *tracer, red *ReduceSpec) ([]rec.Record, []uint64, Stats, error) {
	pl := &ws.plan
	var (
		stats           Stats
		overflowBuckets int
		overflowDeficit int
	)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if cerr := ctxErr(c.Context); cerr != nil {
			return nil, nil, stats, fmt.Errorf("semisort: canceled: %w", cerr)
		}
		kind := obsv.AttemptFresh
		if attempt > 0 {
			kind = obsv.AttemptResample
		}
		tr.attemptStart(obsv.Attempt{Index: attempt, Kind: kind, Slack: c.Slack})
		pl.begin(ws, a, dst, &c, attempt, tr, red)
		res, oerr := semisortOnce(pl)
		stats = pl.stats
		stats.Retries = attempt
		stats.Attempts = attempt + 1
		stats.EffectiveSlack = c.Slack
		stats.OverflowedBuckets = overflowBuckets
		stats.OverflowDeficit = overflowDeficit
		if oerr == nil {
			tr.attemptEnd(obsv.AttemptEnd{Index: attempt, Outcome: obsv.OutcomeOK})
			return res, pl.reps, stats, nil
		}
		// Declared past the success return: errors.As moves it to the heap.
		var of *overflowError
		switch {
		case errors.Is(oerr, errSlotCap):
			tr.attemptEnd(obsv.AttemptEnd{Index: attempt, Outcome: obsv.OutcomeCap})
			return pl.fallback(stats, "slot memory cap")
		case errors.As(oerr, &of):
			overflowBuckets += len(of.buckets)
			for _, d := range of.buckets {
				overflowDeficit += int(d)
			}
			stats.OverflowedBuckets = overflowBuckets
			stats.OverflowDeficit = overflowDeficit
			tr.attemptEnd(obsv.AttemptEnd{
				Index: attempt, Outcome: obsv.OutcomeOverflow,
				OverflowedBuckets: len(of.buckets),
			})
		default:
			// Cancellation, an injected fault or an internal invariant
			// violation: not retryable.
			outcome := obsv.OutcomeError
			if ctxErr(c.Context) != nil {
				outcome = obsv.OutcomeCanceled
			}
			tr.attemptEnd(obsv.AttemptEnd{Index: attempt, Outcome: outcome})
			return nil, nil, stats, fmt.Errorf("semisort failed after %d attempts: %w", attempt+1, oerr)
		}
		c.Slack *= 2
	}
	return pl.fallback(stats, "retries exhausted")
}

// fallback is graceful degradation: the attempts gave up (why: the slot
// memory cap, or exhausted retries), so the call falls back to the
// deterministic two-phase sequential semisort, which needs no slack and
// cannot overflow — unless DisableFallback asks for ErrOverflow instead.
// A plain call's result lands in the output the attempt already bound,
// else in the caller's buffer when ensureOutN would bind it (Into and
// warm Shared calls get their buffer back), else in a fresh one; a
// fused call's sequential result is the output unless the caller's
// buffer holds it. Either way no second array is allocated.
// stats are the last attempt's; the fallback is traced as one more
// attempt (index stats.Attempts) holding a single "fallback" span.
func (pl *plan) fallback(stats Stats, why string) (out []rec.Record, reps []uint64, _ Stats, err error) {
	c := &pl.cfg
	if c.DisableFallback {
		return nil, nil, stats, fmt.Errorf("semisort: %s after %d attempts: %w", why, stats.Attempts, ErrOverflow)
	}
	if cerr := ctxErr(c.Context); cerr != nil {
		return nil, nil, stats, fmt.Errorf("semisort: canceled: %w", cerr)
	}
	tr := &pl.tr
	fbIdx := stats.Attempts
	tr.attemptStart(obsv.Attempt{Index: fbIdx, Kind: obsv.AttemptFallback})
	tr.phaseStart(fbIdx, obsv.PhaseFallback)
	t0 := time.Now()
	tr.labeled("fallback", func() {
		if pl.red == nil {
			// A plain call sorts straight into its output: the one the
			// attempt bound before it gave up (the dovetail route's cap
			// trips after the kernel's top pass has written it), else
			// the caller's buffer or a fresh one by ensureOutN's rule.
			if pl.out == nil {
				pl.ensureOut()
			}
			out = seqsemi.TwoPhaseInto(pl.a, pl.out)
			return
		}
		// The fused fallback: sort sequentially, then fold each
		// equal-key run in place (reduce.go).
		out, reps = reduceRuns(pl.ws, seqsemi.TwoPhase(pl.a), pl.red)
		if dst := pl.dst; cap(dst) >= len(out) && !sliceOverlaps(dst, pl.a) {
			out = append(dst[:0], out...) // ensureOutN's rule
		}
	})
	stats.Phases.LocalSort += time.Since(t0)
	tr.span(fbIdx, obsv.PhaseFallback, t0, obsv.OutcomeOK)
	tr.attemptEnd(obsv.AttemptEnd{Index: fbIdx, Outcome: obsv.OutcomeOK})
	stats.FallbackUsed = true
	if pl.red != nil {
		stats.ReducedGroups = len(out)
	}
	return out, reps, stats, nil
}

// overflowError is an ErrOverflow carrying which buckets overflowed and
// how many failed placements were observed (Stats.OverflowedBuckets and
// OverflowDeficit).
type overflowError struct {
	buckets map[int32]int32 // bucket id → failed placements observed
}

func (e *overflowError) Error() string {
	return fmt.Sprintf("%v (%d buckets deficient)", ErrOverflow, len(e.buckets))
}

func (e *overflowError) Unwrap() error { return ErrOverflow }
