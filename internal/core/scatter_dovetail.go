// The dovetail route (ScatterDovetail): the planner's default for a plain
// semisort, decided before Phase 1 (resolveScatter). The call is one
// invocation of internal/sortint's DovetailSort kernel (arXiv 2401.00710)
// over the whole input: a top-down MSD radix recursion with size-adaptive
// digits that samples every large node and pulls that node's heavy keys
// out of its own distribution pass. The paper's Phases 1–3 do not run:
// the kernel finds heavy keys where they matter, per node, so a
// pipeline-level sample, classification and heavy split in front of it
// would only re-read the input.
//
// The kernel's top pass reads the caller's input straight into the output
// (SemisortFrom), where its heavy groups are final, and each light child
// then groups in place there through scratch the kernel's tables size to
// the largest child. The route touches n records of output and only a
// child's worth of scratch per worker; the kernel prices that scratch
// against Config.MaxSlotBytes once its top pass has fixed the children,
// and an over-cap call falls back with its input untouched. Warm runs
// allocate nothing at Procs 1 and a fixed
// number of goroutine closures at Procs > 1 (about 120 per call on a
// light input, whatever its size; TestSteadyStateAllocsParallelDefault).
//
// Determinism: the kernel's arrangement is a pure function of the input
// — node samples are fixed strides, digit widths a function of node size
// — so the output is byte-identical across Procs and needs no seed. Every
// group keeps its records in input order. There is no CAS, no probing and
// no overflow, hence no Las Vegas retry; errors out of this route are
// cancellations (or injected faults at radix nodes).
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obsv"
	"repro/internal/rec"
	"repro/internal/sortint"
)

// dovetailRoute runs one attempt on the kernel. Its trace is an
// "allocate" span (binding the output) and a "localsort" span with
// kernel "radix" (the kernel call, whose outcome is "cap" when the child
// scratch would exceed Config.MaxSlotBytes); there is one phase gate, at
// the local sort.
func (pl *plan) dovetailRoute() ([]rec.Record, error) {
	if err := phaseGate(pl.ctx, "local sort"); err != nil {
		return nil, err
	}
	pl.tr.phaseStart(pl.attempt, obsv.PhaseAllocate)
	t0 := time.Now()
	pl.ensureOut()
	pl.stats.SlotsAllocated = pl.n
	pl.stats.Phases.Buckets = time.Since(t0)
	pl.tr.span(pl.attempt, obsv.PhaseAllocate, t0, obsv.OutcomeOK)

	pl.tr.phaseStart(pl.attempt, obsv.PhaseLocalSort)
	t0 = time.Now()
	if err := pl.tr.labeledPhase(pl, "localsort", (*plan).dovetailBody); err != nil {
		if errors.Is(err, sortint.ErrScratchCap) {
			pl.stats.Phases.LocalSort = time.Since(t0)
			pl.tr.localSortSpan(pl.attempt, obsv.PhaseLocalSort, t0, obsv.OutcomeCap, "radix", 0)
			return nil, fmt.Errorf("%w: dovetail child scratch: %w", errSlotCap, err)
		}
		pl.tr.localSortSpan(pl.attempt, obsv.PhaseLocalSort, t0, obsv.OutcomeCanceled, "radix", 0)
		return nil, fmt.Errorf("semisort: canceled at local sort: %w", err)
	}
	pl.stats.Phases.LocalSort = time.Since(t0)
	pl.tr.localSortSpan(pl.attempt, obsv.PhaseLocalSort, t0, obsv.OutcomeOK, "radix", 0)

	// The kernel's counters are the call's: the heavy keys are the ones
	// its nodes pulled out, and the top-level hand-off of the whole input
	// counts as one radix node (so PlannerRoutes is populated even below
	// the kernel's sampling cutoff).
	d := &pl.dov
	pl.stats.HeavyKeys = int(d.HeavyKeysPlaced)
	pl.stats.HeavyRecords = int(d.HeavyRecords)
	pl.stats.PlannerRoutes.RadixNodes = 1 + d.RadixNodes
	pl.stats.PlannerRoutes.DovetailNodes = d.DovetailNodes
	pl.stats.PlannerRoutes.HeavyKeysDovetailed = d.HeavyKeysPlaced
	return pl.out, nil
}

func (pl *plan) dovetailBody() error {
	return pl.ws.rxTables.SemisortFrom(pl.ctx, pl.procs, pl.a, pl.out, pl.cfg.MaxSlotBytes, &pl.dov)
}
