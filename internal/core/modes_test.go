package core

import (
	"testing"

	"repro/internal/distgen"
	"repro/internal/rec"
)

// TestScatterBlockRounds runs the theory-faithful placement across the
// workload matrix and checks correctness plus stat consistency with the
// default scatter.
func TestScatterBlockRounds(t *testing.T) {
	specs := []distgen.Spec{
		{Kind: distgen.Uniform, Param: 1e12},   // all light
		{Kind: distgen.Uniform, Param: 20},     // all heavy
		{Kind: distgen.Exponential, Param: 60}, // mixed
		{Kind: distgen.Zipfian, Param: 1e4},    // skewed
	}
	for _, spec := range specs {
		for _, procs := range []int{1, 4} {
			a := distgen.Generate(4, 60000, spec, 31)
			out, stats, err := Semisort(a, &Config{Procs: procs, Seed: 7, Probe: ProbeBlockRounds})
			if err != nil {
				t.Fatalf("%v procs=%d: %v", spec, procs, err)
			}
			if !rec.IsSemisorted(out) || !rec.SamePermutation(a, out) {
				t.Fatalf("%v procs=%d: invalid output", spec, procs)
			}
			// Heavy classification must agree with the CAS scatter's,
			// which, like the probing rounds, runs the full sampling loop
			// (the default planner's dovetail route draws no sample).
			_, ref, err := Semisort(a, &Config{Procs: procs, Seed: 7, ScatterStrategy: ScatterProbing})
			if err != nil {
				t.Fatal(err)
			}
			if stats.HeavyRecords != ref.HeavyRecords {
				t.Errorf("%v: rounds heavy=%d, default heavy=%d", spec, stats.HeavyRecords, ref.HeavyRecords)
			}
		}
	}
}

func TestScatterBlockRoundsTiny(t *testing.T) {
	for n := 0; n <= 20; n++ {
		a := make([]rec.Record, n)
		for i := range a {
			a[i] = rec.Record{Key: uint64(i % 3), Value: uint64(i)}
		}
		out, _, err := Semisort(a, &Config{Probe: ProbeBlockRounds})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !rec.IsSemisorted(out) || !rec.SamePermutation(a, out) {
			t.Fatalf("n=%d: invalid output", n)
		}
	}
}

func TestScatterBlockRoundsWithExactSizes(t *testing.T) {
	a := distgen.Generate(4, 50000, distgen.Spec{Kind: distgen.Exponential, Param: 50}, 3)
	out, _, err := Semisort(a, &Config{Probe: ProbeBlockRounds, ExactBucketSizes: true, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.IsSemisorted(out) || !rec.SamePermutation(a, out) {
		t.Fatal("invalid output")
	}
}
