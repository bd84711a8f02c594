package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/rec"
)

// RunScatter is the plain-semisort head-to-head: probing (the paper's CAS
// scatter) against Auto (the deterministic planner, whose plain
// semisorts all take the dovetail radix route), across distributions
// spanning the duplication spectrum — from all-light uniform to Zipfian
// and few-heavy-keys inputs, where heavy duplicates concentrate CAS
// contention on a few buckets and the radix kernel pulls the heavy keys
// out of its own distribution passes. ScatterCounting and
// ScatterDovetail are aliases of Auto on a plain call, so they get no
// rows of their own.
func RunScatter(o Options) []*Table {
	o = o.withDefaults()
	P := o.MaxProcs()

	dists := []struct {
		name string
		spec distgen.Spec
	}{
		{"uniform N=n", repUniform(o.N)},
		{"exponential λ=n/10^3", repExponential(o.N)},
		{"zipfian M=10^4", distgen.Spec{Kind: distgen.Zipfian, Param: 1e4}},
		{"uniform N=16 (few heavy)", distgen.Spec{Kind: distgen.Uniform, Param: 16}},
	}
	strategies := []core.ScatterStrategy{core.ScatterProbing, core.ScatterAuto}

	tab := &Table{
		Title: fmt.Sprintf("Scatter strategies — probing vs the planner, n=%d, p=%d", o.N, P),
		Headers: []string{"distribution", "strategy", "t(s)", "scatter(s)",
			"localsort(s)", "pack(s)", "resolved", "vs probing"},
	}

	var ws core.Workspace
	for di, d := range dists {
		a := distgen.Generate(P, o.N, d.spec, o.Seed+uint64(di))
		var probingTotal time.Duration
		for _, strat := range strategies {
			var stats core.Stats
			t := timeIt(o.Reps, func() {
				out, st, err := core.SemisortWS(&ws, a, &core.Config{Procs: P, Seed: o.Seed + 7,
					ScatterStrategy: strat})
				if err != nil {
					panic(fmt.Sprintf("scatter experiment %q/%v: %v", d.name, strat, err))
				}
				if !rec.IsSemisorted(out) {
					panic(fmt.Sprintf("scatter experiment %q/%v: output not semisorted", d.name, strat))
				}
				stats = st
			})
			if strat == core.ScatterProbing {
				probingTotal = t
			}
			tab.AddRow(d.name, strat.String(), secs(t), secs(stats.Phases.Scatter),
				secs(stats.Phases.LocalSort), secs(stats.Phases.Pack),
				stats.ScatterStrategy, ratio(probingTotal, t))
		}
	}
	tab.Notes = append(tab.Notes,
		"'resolved' is the placement the run actually used — on the Auto rows it shows the planner's pick (dovetail for every plain semisort)")
	render(o, tab)
	return []*Table{tab}
}
