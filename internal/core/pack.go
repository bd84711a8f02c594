// Phase 5 — packing (paper Section 4, Phase 5). The work is
// strategy-specific (the probing stage compacts the heavy region with the
// interval technique and copies the light buckets; the counting stage
// merges the heavy cells and compacts the reduced light buckets into the
// group-sized output), so the phase orchestrator delegates to the stage.
package core

import (
	"time"

	"repro/internal/obsv"
)

// packPhase runs Phase 5 through the stage. A placement-invariant
// violation surfaces after the span closes (it describes a completed,
// wrong pack — not an aborted one) and is not retryable.
func (pl *plan) packPhase(st scatterStage) error {
	if err := phaseGate(pl.ctx, "pack"); err != nil {
		return err
	}
	pl.tr.phaseStart(pl.attempt, obsv.PhasePack)
	t0 := time.Now()
	err := st.pack(pl)
	pl.stats.Phases.Pack = time.Since(t0)
	pl.tr.span(pl.attempt, obsv.PhasePack, t0, obsv.OutcomeOK)
	return err
}
