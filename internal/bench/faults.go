package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/fault"
	"repro/internal/rec"
)

// RunFaults measures what the recovery machinery costs: the same semisort
// under injected failure scenarios, reporting time, the overhead over the
// clean run, and the recovery path taken (Las Vegas restarts with doubled
// slack, sequential fallback). There is no paper analogue — the paper's
// overflow probability is O(n^{-c}) so its evaluation never observes a
// retry; this experiment exists to bound the cost of the paths that fire
// when one does.
func RunFaults(o Options) []*Table {
	o = o.withDefaults()
	a := distgen.Generate(o.MaxProcs(), o.N, repExponential(o.N), o.Seed)
	procs := o.MaxProcs()

	type scenario struct {
		name string
		arm  func() *fault.Injector // nil injector = clean run
		cfg  func(*core.Config)
	}
	scenarios := []scenario{
		{name: "clean", arm: func() *fault.Injector { return nil }},
		{name: "overflow x1", arm: func() *fault.Injector {
			return fault.New(o.Seed).Arm(fault.ScatterOverflow, 0, 1)
		}},
		{name: "overflow x2", arm: func() *fault.Injector {
			return fault.New(o.Seed).Arm(fault.ScatterOverflow, 0, 2)
		}},
		{name: "probe saturation", arm: func() *fault.Injector {
			return fault.New(o.Seed).Arm(fault.ProbeSaturation, 0, 1)
		}},
		{name: "fallback (exhausted)", arm: func() *fault.Injector {
			return fault.New(o.Seed).Arm(fault.ScatterOverflow, 0, 1<<20)
		}},
		{name: "fallback (slot cap)", arm: func() *fault.Injector { return nil },
			cfg: func(c *core.Config) { c.MaxSlotBytes = 1024 }},
	}

	tab := &Table{
		Title: fmt.Sprintf("Fault recovery overhead, n=%d, p=%d (exponential dist)",
			o.N, procs),
		Headers: []string{"scenario", "t(s)", "vs clean", "attempts", "slack", "fallback"},
	}

	var clean time.Duration
	var ws core.Workspace
	for _, sc := range scenarios {
		inj := sc.arm()
		// Probing pinned: the scenarios arm scatter-overflow faults, which
		// only the probing path consults.
		cfg := core.Config{Procs: procs, Seed: o.Seed + 7, ScatterStrategy: core.ScatterProbing}
		if sc.cfg != nil {
			sc.cfg(&cfg)
		}
		var stats core.Stats
		if inj != nil {
			fault.Enable(inj)
		}
		d := timeIt(o.Reps, func() {
			if inj != nil {
				inj.Reset()
			}
			out, st, err := core.SemisortWS(&ws, a, &cfg)
			if err != nil {
				panic(fmt.Sprintf("faults experiment %q: %v", sc.name, err))
			}
			if !rec.IsSemisorted(out) {
				panic(fmt.Sprintf("faults experiment %q: output not semisorted", sc.name))
			}
			stats = st
		})
		fault.Disable()
		if sc.name == "clean" {
			clean = d
		}
		tab.AddRow(sc.name, secs(d), ratio(d, clean),
			stats.Attempts, fmt.Sprintf("%.2f", stats.EffectiveSlack), stats.FallbackUsed)
	}
	tab.Notes = append(tab.Notes,
		"attempts counts scatter attempts (retries+1); each retry restarts from Phase 1 with a fresh sample, so slack is the configured 1.1 doubled once per retry",
		"fallback=true rows degrade to the deterministic sequential two-phase semisort")
	render(o, tab)
	return []*Table{tab}
}
