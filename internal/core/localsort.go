// Phase 4 — local sort (paper Section 4, Phase 4): semisort each light
// bucket locally. The phase orchestrator delegates the traversal to the
// scatter stage (the probing stage compacts slot ranges first; the
// counting stage reduces in place in its staging area). The dovetail
// route has no buckets: its whole call is the radix kernel
// (scatter_dovetail.go).
//
// On the probing route every light bucket is grouped by the introsort
// hybrid (sortcmp.Introsort) — the paper's final choice,
// "the sort in the C++ Standard Library", after it tried bucket, counting
// and hybrid sorts; EXPERIMENTS.md records the same ranking here. The
// buckets are traversed in size-aware ranges: a prefix sum over the
// per-bucket sizes is cut into near-equal-weight contiguous ranges
// (prim.BalancedBounds), so under skew a giant light bucket gets a range
// of its own instead of dragging its neighbors onto one worker's critical
// path.
//
// A fused reduce, the counting route's one call kind, replaces the sort
// with reduceSeg (reduce.go), which folds each bucket in a per-worker
// arena owned by the Workspace.
package core

import (
	"fmt"
	"time"

	"repro/internal/obsv"
	"repro/internal/prim"
)

// localSortPhase runs Phase 4 through the stage. On a fused reduce the
// phase is the in-arena reduction instead of a sort, and its span carries
// the "reduce" phase and kernel names.
func (pl *plan) localSortPhase(st scatterStage) error {
	if err := phaseGate(pl.ctx, "local sort"); err != nil {
		return err
	}
	ph, kernel := obsv.PhaseLocalSort, "hybrid"
	if pl.red != nil {
		ph, kernel = obsv.PhaseReduce, "reduce"
	}
	pl.tr.phaseStart(pl.attempt, ph)
	t0 := time.Now()
	if err := st.localSort(pl); err != nil {
		pl.tr.localSortSpan(pl.attempt, ph, t0, obsv.OutcomeCanceled, kernel, int64(pl.stats.LocalSortRanges))
		return fmt.Errorf("semisort: canceled at local sort: %w", err)
	}
	pl.stats.Phases.LocalSort = time.Since(t0)
	pl.tr.localSortSpan(pl.attempt, ph, t0, obsv.OutcomeOK, kernel, int64(pl.stats.LocalSortRanges))
	return nil
}

// lsRangesPerProc is how many size-aware ranges each worker gets on
// average: enough that the chunk-claiming cursor can absorb residual
// imbalance, few enough that per-range costs (an arena acquire on a
// fused reduce, a cursor bump) stay negligible.
const lsRangesPerProc = 8

// planLightRanges cuts the merged light buckets into pl.lsRanges
// contiguous ranges of near-equal total weight, where weightOf prices
// one bucket's Phase 4 work (slot-array length on the probing path,
// exact record count on the counting path). The boundaries land in
// workspace-owned buffers, so the steady state allocates nothing.
func (pl *plan) planLightRanges(weightOf func(*plan, int) int64) {
	nb := pl.numLightMerged
	if nb == 0 {
		pl.lsRanges = 0
		pl.stats.LocalSortRanges = 0
		return
	}
	ranges := min(nb, pl.procs*lsRangesPerProc)
	if pl.procs == 1 {
		// One serial range: no scheduling to balance.
		ranges = 1
	}
	bounds := grow(&pl.ws.lsBounds, ranges+1)
	cum := grow(&pl.ws.lsCum, nb)
	var run int64
	for j := 0; j < nb; j++ {
		run += weightOf(pl, j)
		cum[j] = run
	}
	prim.BalancedBounds(bounds, cum)
	pl.lsCum, pl.lsBounds, pl.lsRanges = cum, bounds, ranges
	pl.stats.LocalSortRanges = ranges
}
