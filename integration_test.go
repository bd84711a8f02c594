package semisort

import (
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/rec"
	"repro/internal/rrsort"
	"repro/internal/seqsemi"
)

// TestIntegrationMatrix drives the full stack — workload generators from
// distgen through every semisort implementation in the repository — and
// checks they all agree on the grouping structure.
func TestIntegrationMatrix(t *testing.T) {
	specs := []distgen.Spec{
		{Kind: distgen.Uniform, Param: 50},
		{Kind: distgen.Uniform, Param: 1e12},
		{Kind: distgen.Exponential, Param: 40},
		{Kind: distgen.Exponential, Param: 1e5},
		{Kind: distgen.Zipfian, Param: 1e4},
	}
	impls := []struct {
		name string
		fn   func(a []rec.Record) ([]rec.Record, error)
	}{
		{"parallel", func(a []rec.Record) ([]rec.Record, error) {
			out, _, err := core.Semisort(a, &core.Config{Procs: 4, Seed: 3})
			return out, err
		}},
		{"parallel_probing", func(a []rec.Record) ([]rec.Record, error) {
			out, _, err := core.Semisort(a, &core.Config{Procs: 4, Seed: 3, ScatterStrategy: core.ScatterProbing})
			return out, err
		}},
		{"chained", func(a []rec.Record) ([]rec.Record, error) { return seqsemi.Chained(a), nil }},
		{"openaddr", func(a []rec.Record) ([]rec.Record, error) { return seqsemi.OpenAddressing(a), nil }},
		{"twophase", func(a []rec.Record) ([]rec.Record, error) { return seqsemi.TwoPhase(a), nil }},
		{"gomap", func(a []rec.Record) ([]rec.Record, error) { return seqsemi.GoMap(a), nil }},
		{"naming+rr", func(a []rec.Record) ([]rec.Record, error) { return rrsort.SemisortViaRR(4, a, 9) }},
	}

	const n = 40000
	for _, spec := range specs {
		a := distgen.Generate(4, n, spec, 77)
		want := rec.KeyCounts(a)
		for _, impl := range impls {
			out, err := impl.fn(a)
			if err != nil {
				t.Fatalf("%v / %s: %v", spec, impl.name, err)
			}
			if !rec.IsSemisorted(out) {
				t.Fatalf("%v / %s: not semisorted", spec, impl.name)
			}
			got := rec.KeyCounts(out)
			if len(got) != len(want) {
				t.Fatalf("%v / %s: %d distinct keys, want %d", spec, impl.name, len(got), len(want))
			}
			for k, c := range want {
				if got[k] != c {
					t.Fatalf("%v / %s: key %d count %d, want %d", spec, impl.name, k, got[k], c)
				}
			}
		}
	}
}

// TestIntegrationProcsConsistency checks that the parallel semisort's
// grouping structure is independent of the worker count for a fixed seed.
func TestIntegrationProcsConsistency(t *testing.T) {
	a := distgen.Generate(4, 60000, distgen.Spec{Kind: distgen.Zipfian, Param: 1e5}, 13)
	var first []rec.Record
	for _, procs := range []int{1, 2, 3, 8} {
		out, _, err := core.Semisort(a, &core.Config{Procs: procs, Seed: 5})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if !rec.IsSemisorted(out) || !rec.SamePermutation(a, out) {
			t.Fatalf("procs=%d: invalid output", procs)
		}
		if first == nil {
			first = out
			continue
		}
		// Group structure (key -> count) must match; exact order may not.
		w, g := rec.KeyCounts(first), rec.KeyCounts(out)
		for k, c := range w {
			if g[k] != c {
				t.Fatalf("procs=%d: group size mismatch for key %d", procs, k)
			}
		}
	}
}

// TestIntegrationEndToEndAPI exercises the public API against a realistic
// workload from the generator.
func TestIntegrationEndToEndAPI(t *testing.T) {
	recs := distgen.Generate(4, 80000, distgen.Spec{Kind: distgen.Exponential, Param: 80}, 21)
	pub := make([]Record, len(recs))
	copy(pub, recs)

	out, stats, err := RecordsWithStats(pub, &Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !IsSemisorted(out) {
		t.Fatal("not semisorted")
	}
	if stats.HeavyRecords == 0 {
		t.Error("exponential(80) should place some heavy records")
	}
	// The sampled pipeline's Phase 2 classification finds them too.
	if _, cs, err := RecordsWithStats(pub, &Config{Procs: 4, ScatterStrategy: ScatterProbing}); err != nil {
		t.Fatal(err)
	} else if cs.HeavyRecords == 0 {
		t.Error("exponential(80) should classify some heavy records")
	}
	groups := 0
	total := 0
	Runs(out, func(s, e int) { groups++; total += e - s })
	if total != len(pub) {
		t.Fatalf("runs cover %d of %d", total, len(pub))
	}
	if groups != len(rec.KeyCounts(recs)) {
		t.Fatalf("runs = %d, distinct keys = %d", groups, len(rec.KeyCounts(recs)))
	}
}
