package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/distgen"
	"repro/internal/rec"
)

// TestRouteTable pins the planner's three rows over call kind ×
// ScatterStrategy: a plain call runs the dovetail kernel unless it asks
// for ScatterProbing, and every fused call runs counting in one attempt
// whatever the strategy says. A
// plain ScatterCounting or ScatterDovetail call is byte-identical to
// Auto, and every fused combination returns the default's bytes.
func TestRouteTable(t *testing.T) {
	a := distgen.Generate(2, 30000, distgen.Spec{Kind: distgen.Zipfian, Param: 1000}, 5)
	strategies := []ScatterStrategy{ScatterAuto, ScatterProbing, ScatterCounting, ScatterDovetail}
	kinds := []string{"plain", "reduce", "histogram"}

	type result struct {
		out   []rec.Record
		reps  []uint64
		stats Stats
	}
	run := func(kind string, cfg *Config) result {
		var r result
		var err error
		switch kind {
		case "plain":
			r.out, r.stats, err = Semisort(a, cfg)
		case "reduce":
			r.out, r.reps, r.stats, err = ReduceShared(nil, a, cfg, sumSpec())
		case "histogram":
			r.out, r.reps, r.stats, err = HistogramShared(nil, a, cfg)
		}
		if err != nil {
			t.Fatalf("%s %+v: %v", kind, cfg, err)
		}
		return r
	}

	for _, kind := range kinds {
		def := run(kind, &Config{Procs: 2, Seed: 9})
		for _, strat := range strategies {
			label := fmt.Sprintf("%s/%v", kind, strat)
			got := run(kind, &Config{Procs: 2, Seed: 9, ScatterStrategy: strat})
			want := "dovetail"
			switch {
			case kind != "plain":
				want = "counting"
			case strat == ScatterProbing:
				want = "probing"
			}
			if got.stats.ScatterStrategy != want {
				t.Errorf("%s: route %q, want %q", label, got.stats.ScatterStrategy, want)
			}
			if want != "probing" && got.stats.Attempts != 1 {
				t.Errorf("%s: Attempts = %d, want 1", label, got.stats.Attempts)
			}
			if want == "probing" {
				checkSemisorted(t, label, a, got.out)
				continue
			}
			if !slices.Equal(got.out, def.out) || !slices.Equal(got.reps, def.reps) {
				t.Errorf("%s: output differs from the default %s call", label, kind)
			}
		}
	}
}
