package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/external"
	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/rec"
)

// DefaultTolerance is the phase-level regression budget of the
// bench-baseline gate: a phase (or the total) may be up to 15% slower
// than the stored baseline before Compare fails.
const DefaultTolerance = 0.15

// noiseFloor is the share of the baseline total below which a phase is
// too small to gate on: micro-phases (a few hundred µs of allocation or
// packing on small CI inputs) jitter far more than 15% run to run, and
// failing the gate on them would make it cry wolf. Such phases are still
// covered by the total-time check.
const noiseFloor = 0.02

// Baseline is the stored result of a seeded phase-breakdown measurement
// — the contents of BENCH_semisort.json. Write it once on a known-good
// commit, then Compare fresh measurements against it to catch
// phase-level performance regressions.
type Baseline struct {
	N     int    `json:"n"`
	Procs int    `json:"procs"`
	Reps  int    `json:"reps"`
	Seed  uint64 `json:"seed"`
	// PhasesSec is the per-phase minimum across reps, in seconds, keyed
	// by the paper's phase names (sample, buckets, scatter, localsort,
	// pack), plus the dovetail_* and reduce_* route keys. Each phase's
	// minimum is taken independently, which bounds per-phase noise
	// tighter than picking one best rep. Baselines that still hold the
	// retired sampling_* keys (the adaptive-sampling ablation) no longer
	// compare, like the retired AllocsPerOp keys below.
	PhasesSec map[string]float64 `json:"phases_sec"`
	// TotalSec is the minimum across reps of the five-phase total.
	TotalSec float64 `json:"total_sec"`
	// AllocsPerOp is the steady-state heap allocations per warm-workspace
	// semisort call at one worker, keyed by plain route ("probing",
	// "dovetail") and by fused aggregation entry point ("reduce",
	// "histogram", both on the counting route). Absent from baselines
	// written before the pipeline refactor. Compare gates only the keys
	// the stored baseline has, and fails on a stored key the current
	// measurement lacks — so baselines that still hold retired keys (the
	// Phase 4 kernel keys "kernel_counting" and "kernel_bucket", the plain
	// "counting" route) no longer compare; the CI cache namespace is
	// versioned whenever keys are dropped.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// AllocSlack is the absolute allocation headroom of the -compare gate: a
// strategy may allocate up to this many more objects per call than the
// stored baseline before Compare fails. Allocation counts are nearly
// deterministic (unlike times), so the budget is absolute, not relative.
const AllocSlack = 2

// MeasureBaseline measures the uninstrumented semisort (no Observer —
// the baseline captures production performance) on the seeded uniform
// distribution (pinned to the probing scatter) and returns the per-phase
// minima, plus dovetail_* keys covering the default plain route on the
// same workload, plus reduce_* keys covering the fused collect-reduce
// entry points (the counting route) on the duplicate-heavy exponential
// workload (docs/AGGREGATION.md).
func MeasureBaseline(o Options) Baseline {
	o = o.withDefaults()
	P := o.MaxProcs()
	a := distgen.Generate(P, o.N, repUniform(o.N), o.Seed)
	var ws core.Workspace
	phases := map[string]time.Duration{}
	total := time.Duration(1<<63 - 1)
	for r := 0; r < o.Reps; r++ {
		_, st, err := core.SemisortWS(&ws, a, &core.Config{Procs: P, Seed: o.Seed + 7,
			ScatterStrategy: core.ScatterProbing})
		if err != nil {
			panic(err)
		}
		for name, d := range map[string]time.Duration{
			"sample":    st.Phases.SampleSort,
			"buckets":   st.Phases.Buckets,
			"scatter":   st.Phases.Scatter,
			"localsort": st.Phases.LocalSort,
			"pack":      st.Phases.Pack,
		} {
			if old, ok := phases[name]; !ok || d < old {
				phases[name] = d
			}
		}
		if t := st.Phases.Total(); t < total {
			total = t
		}
	}

	exp := distgen.Generate(P, o.N, repExponential(o.N), o.Seed)

	// Dovetail path: the radix route's minima on the all-light uniform
	// workload, where the planner hands the whole input to the recursion.
	// The keys ride in PhasesSec so Compare gates them automatically once
	// a baseline stores them; older baselines without the keys still
	// compare cleanly (Compare iterates the stored baseline's keys).
	dovetail := map[string]time.Duration{}
	for r := 0; r < o.Reps; r++ {
		_, st, err := core.SemisortWS(&ws, a, &core.Config{Procs: P, Seed: o.Seed + 7,
			ScatterStrategy: core.ScatterDovetail})
		if err != nil {
			panic(err)
		}
		for name, d := range map[string]time.Duration{
			"dovetail_scatter":   st.Phases.Scatter,
			"dovetail_localsort": st.Phases.LocalSort,
			"dovetail_total":     st.Phases.Total(),
		} {
			if old, ok := dovetail[name]; !ok || d < old {
				dovetail[name] = d
			}
		}
	}

	b := Baseline{
		N: o.N, Procs: P, Reps: o.Reps, Seed: o.Seed,
		PhasesSec: make(map[string]float64, len(phases)+len(dovetail)),
		TotalSec:  total.Seconds(),
	}
	for name, d := range phases {
		b.PhasesSec[name] = d.Seconds()
	}
	for name, d := range dovetail {
		b.PhasesSec[name] = d.Seconds()
	}

	// Fused reduce: the collect-reduce pipeline (the counting route) on
	// the duplicate-heavy workload. Like dovetail_*, the keys ride in
	// PhasesSec so newer baselines gate them and older ones without the
	// keys still compare cleanly.
	sp := sumReduceSpec()
	reduced := map[string]time.Duration{}
	for r := 0; r < o.Reps; r++ {
		_, _, st, err := core.ReduceShared(&ws, exp, &core.Config{Procs: P, Seed: o.Seed + 7}, sp)
		if err != nil {
			panic(err)
		}
		if d := st.Phases.Total(); reduced["reduce_counting"] == 0 || d < reduced["reduce_counting"] {
			reduced["reduce_counting"] = d
		}
		_, _, st, err = core.HistogramShared(&ws, exp, &core.Config{Procs: P, Seed: o.Seed + 7})
		if err != nil {
			panic(err)
		}
		if d := st.Phases.Total(); reduced["reduce_histogram"] == 0 || d < reduced["reduce_histogram"] {
			reduced["reduce_histogram"] = d
		}
	}
	for name, d := range reduced {
		b.PhasesSec[name] = d.Seconds()
	}

	// Out-of-core path: end-to-end shuffle (spill + read-back + per-
	// partition semisort) on the heavy workload, so a regression in the
	// spill encoding, the writer pool or the prefetcher fails the same
	// gate.
	var shufCfg external.Config
	shufCfg.Partitions = 8
	shufCfg.Semisort.Procs = P
	shufCfg.Semisort.Seed = o.Seed + 7
	b.PhasesSec["outofcore_pipelined"] = timeIt(o.Reps, func() {
		sh, err := external.NewShuffler(&shufCfg)
		if err != nil {
			panic(err)
		}
		if err := sh.AddBatch(exp); err != nil {
			panic(err)
		}
		if err := sh.ForEachGroup(func(uint64, []rec.Record) error { return nil }); err != nil {
			panic(err)
		}
	}).Seconds()

	// Steady-state allocations per call, one worker, warm workspace: the
	// zero-allocation contract of the pipeline-over-Workspace design. Kept
	// in the baseline so an allocation regression (a buffer that slipped
	// out of the Workspace, a closure that started escaping) fails the
	// same CI gate as a time regression.
	b.AllocsPerOp = map[string]float64{
		"probing": allocsPerOp(allocReps, func() {
			if _, _, err := core.SemisortWS(&ws, a, &core.Config{Procs: 1, Seed: o.Seed + 7,
				ScatterStrategy: core.ScatterProbing}); err != nil {
				panic(err)
			}
		}),
		// The dovetail route keeps its child scratch in the workspace's
		// kernel tables, so a warm run allocates only what probing does;
		// a recursion buffer escaping the workspace shows up here first.
		"dovetail": allocsPerOp(allocReps, func() {
			if _, _, err := core.SemisortWS(&ws, a, &core.Config{Procs: 1, Seed: o.Seed + 7,
				ScatterStrategy: core.ScatterDovetail}); err != nil {
				panic(err)
			}
		}),
		// Fused reduce and histogram reuse the workspace's accumulator
		// cells and reduce stage, so warm calls must stay allocation-free
		// just like plain semisorts.
		"reduce": allocsPerOp(allocReps, func() {
			if _, _, _, err := core.ReduceShared(&ws, exp, &core.Config{Procs: 1, Seed: o.Seed + 7}, sp); err != nil {
				panic(err)
			}
		}),
		"histogram": allocsPerOp(allocReps, func() {
			if _, _, _, err := core.HistogramShared(&ws, exp, &core.Config{Procs: 1, Seed: o.Seed + 7}); err != nil {
				panic(err)
			}
		}),
	}
	return b
}

// Write stores the baseline as indented JSON at path.
func (b Baseline) Write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBaseline loads a baseline written by Write.
func ReadBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("baseline %s: %w", path, err)
	}
	return b, nil
}

// Compare checks a fresh measurement cur against the stored base.
// It fails when the two were not measured under the same configuration
// (regressions would be meaningless), and otherwise reports every phase
// slower than base by more than tol (plus the total). Phases below
// noiseFloor of the baseline total are exempt from the per-phase check;
// tol <= 0 selects DefaultTolerance.
func Compare(cur, base Baseline, tol float64) error {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	if cur.N != base.N || cur.Procs != base.Procs || cur.Seed != base.Seed {
		return fmt.Errorf(
			"baseline config mismatch: measured n=%d procs=%d seed=%d, baseline n=%d procs=%d seed=%d",
			cur.N, cur.Procs, cur.Seed, base.N, base.Procs, base.Seed)
	}
	var regressions []string
	names := make([]string, 0, len(base.PhasesSec))
	for name := range base.PhasesSec {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bs := base.PhasesSec[name]
		cs, ok := cur.PhasesSec[name]
		if !ok {
			return fmt.Errorf("baseline phase %q missing from current measurement", name)
		}
		if base.TotalSec > 0 && bs < noiseFloor*base.TotalSec {
			continue
		}
		if cs > bs*(1+tol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.4fs vs baseline %.4fs (+%.0f%% > %.0f%%)",
				name, cs, bs, 100*(cs/bs-1), 100*tol))
		}
	}
	if cur.TotalSec > base.TotalSec*(1+tol) {
		regressions = append(regressions, fmt.Sprintf(
			"total: %.4fs vs baseline %.4fs (+%.0f%% > %.0f%%)",
			cur.TotalSec, base.TotalSec, 100*(cur.TotalSec/base.TotalSec-1), 100*tol))
	}
	// Allocation gate: absolute headroom, since steady-state counts are
	// deterministic. Only keys stored in the baseline are gated, so
	// baselines written before AllocsPerOp existed still compare cleanly.
	anames := make([]string, 0, len(base.AllocsPerOp))
	for name := range base.AllocsPerOp {
		anames = append(anames, name)
	}
	sort.Strings(anames)
	for _, name := range anames {
		ba := base.AllocsPerOp[name]
		ca, ok := cur.AllocsPerOp[name]
		if !ok {
			return fmt.Errorf("baseline allocation count %q missing from current measurement", name)
		}
		if ca > ba+AllocSlack {
			regressions = append(regressions, fmt.Sprintf(
				"%s allocs/op: %.1f vs baseline %.1f (budget +%d)",
				name, ca, ba, AllocSlack))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("phase-level perf regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}
