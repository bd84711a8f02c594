package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
)

// RunAblation measures the tunable design choices Section 4 calls out:
// the sampling probability p, the heavy threshold δ and the light bucket
// count. Each table varies one knob with the rest at the paper's
// defaults, on the uniform N=n workload (all light keys — the hardest
// case for the light-key machinery) and the exponential workload (mixed
// heavy/light). The paper's other Phase 2–3 choices (bucket merging,
// power-of-two sizing, linear probing) have no knob; EXPERIMENTS.md
// records their measurements.
func RunAblation(o Options) []*Table {
	o = o.withDefaults()
	P := o.MaxProcs()
	exp := distgen.Generate(P, o.N, repExponential(o.N), o.Seed)
	uni := distgen.Generate(P, o.N, repUniform(o.N), o.Seed+1)

	run := func(cfg core.Config) (time.Duration, core.Stats, time.Duration, core.Stats) {
		cfg.Procs = P
		cfg.Seed = o.Seed + 7
		// Probing pinned: every knob here ablates the paper's CAS-scatter
		// pipeline; Auto would send both workloads to the radix kernel,
		// which reads none of these knobs.
		cfg.ScatterStrategy = core.ScatterProbing
		var es, us core.Stats
		et := timeIt(o.Reps, func() {
			_, st, err := core.Semisort(exp, &cfg)
			if err != nil {
				panic(err)
			}
			es = st
		})
		ut := timeIt(o.Reps, func() {
			_, st, err := core.Semisort(uni, &cfg)
			if err != nil {
				panic(err)
			}
			us = st
		})
		return et, es, ut, us
	}

	var out []*Table

	// Sampling probability p = 1/rate.
	pTab := &Table{
		Title:   fmt.Sprintf("Ablation — sampling probability p (n=%d, p=%d procs)", o.N, P),
		Headers: []string{"1/p", "exp_time(s)", "exp_slots/n", "uni_time(s)", "uni_slots/n"},
	}
	for _, rate := range []int{4, 8, 16, 32, 64} {
		et, es, ut, us := run(core.Config{SampleRate: rate})
		pTab.AddRow(rate, secs(et), fmt.Sprintf("%.2f", float64(es.SlotsAllocated)/float64(o.N)),
			secs(ut), fmt.Sprintf("%.2f", float64(us.SlotsAllocated)/float64(o.N)))
	}
	pTab.Notes = append(pTab.Notes, "paper default 1/p=16: denser samples cost more in phase 1, sparser samples inflate f(s) slack")
	out = append(out, pTab)

	// Heavy threshold δ.
	dTab := &Table{
		Title:   "Ablation — heavy threshold δ",
		Headers: []string{"delta", "exp_time(s)", "exp_heavy_keys", "uni_time(s)", "uni_heavy_keys"},
	}
	for _, delta := range []int{4, 8, 16, 32, 64} {
		et, es, ut, us := run(core.Config{Delta: delta})
		dTab.AddRow(delta, secs(et), es.HeavyKeys, secs(ut), us.HeavyKeys)
	}
	dTab.Notes = append(dTab.Notes, "paper default δ=16; small δ promotes noise keys to heavy, large δ pushes duplicates through local sort")
	out = append(out, dTab)

	// Light bucket count.
	bTab := &Table{
		Title:   "Ablation — max light buckets",
		Headers: []string{"buckets", "exp_time(s)", "uni_time(s)", "uni_light_buckets"},
	}
	for _, nb := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18} {
		et, _, ut, us := run(core.Config{MaxLightBuckets: nb})
		bTab.AddRow(nb, secs(et), secs(ut), us.LightBuckets)
	}
	bTab.Notes = append(bTab.Notes, "paper default 2^16; fewer buckets mean larger local sorts, more buckets mean worse f(s) accuracy per bucket")
	out = append(out, bTab)

	render(o, out...)
	return out
}
