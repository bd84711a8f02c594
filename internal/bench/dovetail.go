package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/rec"
)

// RunDovetail sweeps the duplication spectrum — distinct-key fraction
// 2^0 down to 2^-20 of n — and races the planner's dovetail route (the
// radix kernel over the whole input, no pipeline sample) against the
// paper's sampled probing scatter. The planner decides from
// the call, so "resolved" reads dovetail on every row; the node columns
// show the kernel's own per-node routing flip from plain radix passes on
// the near-unique end to heavy-key extraction (dovetail nodes) on the
// duplicate-heavy end.
func RunDovetail(o Options) []*Table {
	o = o.withDefaults()
	P := o.MaxProcs()

	tab := &Table{
		Title: fmt.Sprintf("Dovetail planner — duplication-spectrum sweep, n=%d, p=%d", o.N, P),
		Headers: []string{"distinct/n", "probing(s)", "dovetail(s)",
			"resolved", "scatter_nodes", "radix_nodes", "dovetail_nodes", "vs probing"},
	}

	var ws core.Workspace
	for exp := 0; exp <= 20; exp += 4 {
		pool := o.N >> exp
		if pool < 1 {
			pool = 1
		}
		a := distgen.Generate(P, o.N, distgen.Spec{Kind: distgen.Uniform, Param: float64(pool)}, o.Seed+uint64(exp))

		run := func(strat core.ScatterStrategy) (time.Duration, core.Stats) {
			var stats core.Stats
			t := timeIt(o.Reps, func() {
				out, st, err := core.SemisortWS(&ws, a, &core.Config{Procs: P, Seed: o.Seed + 7,
					ScatterStrategy: strat})
				if err != nil {
					panic(fmt.Sprintf("dovetail sweep exp=%d/%v: %v", exp, strat, err))
				}
				if !rec.IsSemisorted(out) {
					panic(fmt.Sprintf("dovetail sweep exp=%d/%v: output not semisorted", exp, strat))
				}
				stats = st
			})
			return t, stats
		}

		probT, _ := run(core.ScatterProbing)
		dovT, dovStats := run(core.ScatterDovetail)

		r := dovStats.PlannerRoutes
		tab.AddRow(fmt.Sprintf("2^-%d", exp), secs(probT), secs(dovT),
			dovStats.ScatterStrategy, r.ScatterNodes, r.RadixNodes, r.DovetailNodes,
			ratio(probT, dovT))
	}
	tab.Notes = append(tab.Notes,
		"'vs probing' > 1 means dovetail beat the paper's probing scatter at that point",
		"every row resolves to dovetail (scatter_nodes=0); radix_nodes counts the top-level hand-off plus the kernel's plain radix nodes, dovetail_nodes the kernel nodes that pulled heavy keys out (0 on the near-unique end)")
	render(o, tab)
	return []*Table{tab}
}
