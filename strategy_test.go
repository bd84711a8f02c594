package semisort

// Public-API side of the differential harness: every ScatterStrategy
// value must group identically through Records/RecordsWithStats and keep
// the StableRecords ordering guarantee.

import (
	"fmt"
	"testing"

	"repro/internal/rec"
)

// strategyInputs builds three contrasting inputs: heavy duplication on
// five keys, a mixed duplicate/distinct blend, and all-distinct keys.
// Value is the input index, so stability is checkable on the output.
func strategyInputs(n int) map[string][]Record {
	heavy := make([]Record, n)
	for i := range heavy {
		heavy[i] = Record{Key: uint64(i%5)*0x9e3779b97f4a7c15 + 1, Value: uint64(i)}
	}
	mixed := make([]Record, n)
	for i := range mixed {
		k := uint64(i) * 0x2545f4914f6cdd1d
		if i%3 != 0 {
			k = uint64(i%50)*0x9e3779b97f4a7c15 + 1
		}
		mixed[i] = Record{Key: k, Value: uint64(i)}
	}
	distinct := make([]Record, n)
	for i := range distinct {
		distinct[i] = Record{Key: uint64(i+1) * 0x2545f4914f6cdd1d, Value: uint64(i)}
	}
	return map[string][]Record{"heavy": heavy, "mixed": mixed, "distinct": distinct}
}

var allStrategies = []ScatterStrategy{ScatterAuto, ScatterProbing, ScatterCounting, ScatterDovetail}

func TestScatterStrategiesPublicAPI(t *testing.T) {
	for name, in := range strategyInputs(20000) {
		want := rec.KeyCounts(in)
		for _, strat := range allStrategies {
			label := fmt.Sprintf("%s/%v", name, strat)
			out, stats, err := RecordsWithStats(in, &Config{Procs: 2, ScatterStrategy: strat})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !IsSemisorted(out) {
				t.Fatalf("%s: output not semisorted", label)
			}
			got := rec.KeyCounts(out)
			if len(got) != len(want) {
				t.Fatalf("%s: %d distinct keys, want %d", label, len(got), len(want))
			}
			for k, c := range want {
				if got[k] != c {
					t.Fatalf("%s: key %#x count %d, want %d", label, k, got[k], c)
				}
			}
			switch stats.ScatterStrategy {
			case "probing", "counting", "dovetail":
			default:
				t.Errorf("%s: Stats.ScatterStrategy = %q, want probing, counting or dovetail",
					label, stats.ScatterStrategy)
			}
		}
	}
}

// Auto must route every plain semisort — heavy duplication and distinct
// keys alike — to the dovetail radix kernel, with no pipeline sample, and
// every fused reduce to the counting scatter — never to probing, the
// contract the config documentation promises.
func TestAutoResolution(t *testing.T) {
	in := strategyInputs(20000)
	for name := range in {
		out, stats, err := RecordsWithStats(in[name], &Config{Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !IsSemisorted(out) {
			t.Fatalf("%s: output not semisorted", name)
		}
		if stats.ScatterStrategy != "dovetail" || stats.SampleSize != 0 || stats.Attempts != 1 {
			t.Errorf("%s input resolved to %q with a %d-key sample in %d attempts, want dovetail with none in 1",
				name, stats.ScatterStrategy, stats.SampleSize, stats.Attempts)
		}
	}
	for name := range in {
		out, stats, err := NewSorter(&Config{Procs: 2}).ReduceShared(in[name], sumReducer)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ScatterStrategy != "counting" {
			t.Errorf("fused reduce of %s input resolved to %q, want counting", name, stats.ScatterStrategy)
		}
		if groups := len(rec.KeyCounts(in[name])); len(out) != groups || stats.Attempts != 1 {
			t.Errorf("fused reduce of %s input: %d groups in %d attempts, want %d in 1",
				name, len(out), stats.Attempts, groups)
		}
	}
}

// Strategy resolution must be invariant across the sample rate: the
// planner decides from the call, before Phase 1, so a dense, the default
// and a sparse sample must all route plain semisorts to dovetail
// (drawing no sample) and fused reduces to counting (which draws one
// round), grouping correctly throughout.
func TestAutoResolutionAcrossSamplingModes(t *testing.T) {
	in := strategyInputs(20000)
	modes := []struct {
		name string
		cfg  Config
	}{
		{"dense", Config{SampleRate: 2}},
		{"default", Config{}},
		{"sparse", Config{SampleRate: 256}},
	}
	for _, m := range modes {
		for _, name := range []string{"heavy", "distinct"} {
			cfg := m.cfg
			cfg.Procs = 2
			out, stats, err := RecordsWithStats(in[name], &cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.name, name, err)
			}
			if !IsSemisorted(out) {
				t.Fatalf("%s/%s: output not semisorted", m.name, name)
			}
			if stats.ScatterStrategy != "dovetail" || stats.SampleRounds != 0 {
				t.Errorf("%s: %s input resolved to %q after %d sampling rounds, want dovetail after none",
					m.name, name, stats.ScatterStrategy, stats.SampleRounds)
			}
			_, stats, err = NewSorter(&cfg).ReduceShared(in[name], sumReducer)
			if err != nil {
				t.Fatalf("%s/%s fused: %v", m.name, name, err)
			}
			if stats.ScatterStrategy != "counting" || stats.SampleRounds != 1 {
				t.Errorf("%s: fused reduce of %s input resolved to %q after %d sampling rounds, want counting after 1",
					m.name, name, stats.ScatterStrategy, stats.SampleRounds)
			}
		}
	}
}

// Dovetail is a planner, not a single placement: distinct keys must take
// the radix route with plain radix nodes only, while heavy duplication
// must be pulled out by the kernel's own nodes (dovetail nodes placing
// the five keys) — the skew-adaptive promise, observable through
// PlannerRoutes.
func TestDovetailResolution(t *testing.T) {
	in := strategyInputs(20000)
	_, stats, err := RecordsWithStats(in["distinct"], &Config{Procs: 2, ScatterStrategy: ScatterDovetail})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ScatterStrategy != "dovetail" {
		t.Errorf("distinct input resolved to %q, want dovetail", stats.ScatterStrategy)
	}
	if r := stats.PlannerRoutes; r.RadixNodes == 0 || r.ScatterNodes != 0 || r.DovetailNodes != 0 {
		t.Errorf("distinct input routed wrong: %+v", r)
	}
	_, stats, err = RecordsWithStats(in["heavy"], &Config{Procs: 2, ScatterStrategy: ScatterDovetail})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ScatterStrategy != "dovetail" {
		t.Errorf("heavy input resolved to %q, want dovetail", stats.ScatterStrategy)
	}
	if r := stats.PlannerRoutes; r.ScatterNodes != 0 || r.DovetailNodes == 0 || r.HeavyKeysDovetailed != 5 ||
		stats.HeavyKeys != 5 || stats.HeavyRecords != len(in["heavy"]) {
		t.Errorf("heavy input routed wrong: %d heavy keys holding %d records, %+v",
			stats.HeavyKeys, stats.HeavyRecords, r)
	}
}

// StableRecords must keep input order within every group under every
// strategy; Value carries the input index, so runs must ascend.
func TestStableRecordsPerStrategy(t *testing.T) {
	for name, in := range strategyInputs(20000) {
		for _, strat := range allStrategies {
			label := fmt.Sprintf("%s/%v", name, strat)
			out, err := StableRecords(in, &Config{Procs: 2, ScatterStrategy: strat})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !IsSemisorted(out) {
				t.Fatalf("%s: output not semisorted", label)
			}
			for start, end := range AllRuns(out) {
				for i := start + 1; i < end; i++ {
					if out[i].Value <= out[i-1].Value {
						t.Fatalf("%s: run at %d not in input order: Value %d after %d",
							label, start, out[i].Value, out[i-1].Value)
					}
				}
			}
		}
	}
}
