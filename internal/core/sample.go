// Phase 1 — sampling and sorting (paper Section 4, Phase 1): one
// stratified round keeps one key from every complete SampleRate-record
// block, at a pseudo-random offset inside the block, and one sort orders
// the n/SampleRate kept keys for Phase 2.
//
// Only the sampled routes (probing and counting) run this phase. The
// dovetail route, the planner's pick for a plain semisort, draws no
// sample.
//
// Determinism: the draw for block b is keyed by b through the attempt's
// sampling RNG and lands at sample[b], so the sample is byte-identical
// across proc counts; attempt k of the Las Vegas restart draws from
// sample seed k, so its sample is the same at any Procs too.
package core

import (
	"fmt"
	"time"

	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/sortint"
)

// samplePhase draws the stratified sample and sorts it.
func (pl *plan) samplePhase() error {
	if err := phaseGate(pl.ctx, "sampling"); err != nil {
		return err
	}
	pl.tr.phaseStart(pl.attempt, obsv.PhaseSample)
	t0 := time.Now()
	if err := pl.tr.labeledPhase(pl, "sample", (*plan).sampleBody); err != nil {
		pl.tr.span(pl.attempt, obsv.PhaseSample, t0, obsv.OutcomeCanceled)
		return fmt.Errorf("semisort: canceled at sampling: %w", err)
	}
	pl.stats.SampleSize = pl.ns
	pl.stats.SampleRounds = 1
	pl.stats.Phases.SampleSort = time.Since(t0)
	pl.tr.span(pl.attempt, obsv.PhaseSample, t0, obsv.OutcomeOK)
	return nil
}

// sampleBody draws one key per block in one parallel pass, then sorts
// the sample against the workspace's sort scratch.
func (pl *plan) sampleBody() error {
	pl.ns = pl.n / pl.cfg.SampleRate
	pl.sample = grow(&pl.ws.sample, pl.ns)
	if pl.ns == 0 {
		return nil // SampleRate > n: nothing to draw
	}
	if err := pl.parFor(pl.ns, parallel.Grain(pl.ns, pl.procs, 2048), (*plan).sampleChunk); err != nil {
		return err
	}
	scratch := grow(&pl.ws.sampleScratch, pl.ns)
	sortint.SortUint64With(pl.procs, pl.sample, scratch)
	return nil
}

// sampleChunk draws the keys of blocks [lo, hi).
func (pl *plan) sampleChunk(lo, hi int) {
	bs := pl.cfg.SampleRate
	for b := lo; b < hi; b++ {
		pl.sample[b] = pl.a[b*bs+int(pl.rng.RandBounded(uint64(b), uint64(bs)))].Key
	}
}
