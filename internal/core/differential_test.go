package core

// Differential harness for the scatter strategies: every strategy, over a
// seeded matrix of adversarial key distributions, must agree with the
// sequential reference on grouping semantics — same multiset of records,
// contiguous key runs — at several worker counts. Run under -race by
// `make check`, this is the safety net that lets the counting scatter
// share the pipeline with the paper's CAS scatter.

import (
	"fmt"
	"testing"

	"repro/internal/distgen"
	"repro/internal/hash"
	"repro/internal/rec"
	"repro/internal/seqsemi"
)

// diffDist is one named distribution of the differential matrix.
type diffDist struct {
	name string
	data []rec.Record
}

// diffMatrix builds the seeded distribution matrix: the paper's uniform
// and Zipfian generators plus the degenerate extremes (every key equal,
// every key distinct) and an adversarial few-heavy-keys mix that puts
// ~90% of the mass on three keys with a fully distinct tail.
func diffMatrix(n int, seed uint64) []diffDist {
	f := hash.NewFamily(seed)
	allEqual := make([]rec.Record, n)
	for i := range allEqual {
		allEqual[i] = rec.Record{Key: f.Hash(7), Value: uint64(i)}
	}
	fewHeavy := make([]rec.Record, n)
	for i := range fewHeavy {
		if i%10 != 0 {
			fewHeavy[i] = rec.Record{Key: f.Hash(uint64(i % 3)), Value: uint64(i)}
		} else {
			fewHeavy[i] = rec.Record{Key: f.Hash(1000 + uint64(i)), Value: uint64(i)}
		}
	}
	return []diffDist{
		{"uniform", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: float64(n)}, seed)},
		{"zipf", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Zipfian, Param: 1000}, seed+1)},
		{"all-equal", allEqual},
		{"all-distinct", mkRecords(n, 0, int64(seed)+2)},
		{"few-heavy", fewHeavy},
	}
}

// sameGrouping asserts out is a valid semisort of in with exactly the
// reference's key multiset.
func sameGrouping(t *testing.T, label string, in, out []rec.Record, refKeys map[uint64]int) {
	t.Helper()
	checkSemisorted(t, label, in, out)
	got := rec.KeyCounts(out)
	if len(got) != len(refKeys) {
		t.Fatalf("%s: %d distinct keys, reference has %d", label, len(got), len(refKeys))
	}
	for k, c := range refKeys {
		if got[k] != c {
			t.Fatalf("%s: key %#x has %d records, reference has %d", label, k, got[k], c)
		}
	}
}

// TestDifferentialStrategies is the full matrix: strategies × procs ×
// distributions against the sequential reference.
func TestDifferentialStrategies(t *testing.T) {
	const n = 20000
	strategies := []ScatterStrategy{ScatterAuto, ScatterProbing, ScatterCounting, ScatterDovetail}
	for _, d := range diffMatrix(n, 99) {
		ref := seqsemi.TwoPhase(append([]rec.Record(nil), d.data...))
		refKeys := rec.KeyCounts(ref)
		if !rec.IsSemisorted(ref) {
			t.Fatalf("%s: sequential reference is not semisorted", d.name)
		}
		for _, strat := range strategies {
			for _, procs := range []int{1, 4} {
				label := fmt.Sprintf("%s/%v/procs=%d", d.name, strat, procs)
				out, stats, err := Semisort(d.data, &Config{Procs: procs, Seed: 5, ScatterStrategy: strat})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameGrouping(t, label, d.data, out, refKeys)
				switch {
				case stats.FallbackUsed:
					// A fallback run reports the failing attempts' strategy.
				case strat != ScatterProbing:
					// The planner sends every plain semisort but an
					// explicit probing one to the dovetail route,
					// whatever the duplication.
					if stats.ScatterStrategy != "dovetail" {
						t.Errorf("%s: Stats.ScatterStrategy = %q, want dovetail",
							label, stats.ScatterStrategy)
					}
				case stats.ScatterStrategy != strat.String():
					t.Errorf("%s: Stats.ScatterStrategy = %q, want %q",
						label, stats.ScatterStrategy, strat)
				}
			}
		}
	}
}

// TestDifferentialAdaptiveSampling crosses the distribution matrix with
// the Phase 1 sample rate: the default 1/16, a dense 1/4 and a sparse
// 1/64. Every combination must agree with the sequential reference and
// draw exactly one stratified round of n/SampleRate keys. It pins
// ScatterProbing: a plain semisort under the planner takes the dovetail
// route, which draws no sample.
func TestDifferentialAdaptiveSampling(t *testing.T) {
	const n = 20000
	for _, d := range diffMatrix(n, 41) {
		refKeys := rec.KeyCounts(seqsemi.TwoPhase(append([]rec.Record(nil), d.data...)))
		for _, rate := range []int{0, 4, 64} {
			for _, procs := range []int{1, 4} {
				label := fmt.Sprintf("%s/rate=%d/procs=%d", d.name, rate, procs)
				cfg := Config{Procs: procs, Seed: 5, SampleRate: rate, ScatterStrategy: ScatterProbing}
				out, stats, err := Semisort(d.data, &cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameGrouping(t, label, d.data, out, refKeys)
				want := n / (&cfg).withDefaults().SampleRate
				if stats.SampleRounds != 1 || stats.SampleSize != want {
					t.Errorf("%s: %d rounds of %d keys, want 1 of %d", label, stats.SampleRounds, stats.SampleSize, want)
				}
			}
		}
	}
}

// runRoute runs a through the counting route (a fused histogram, the
// route's one call kind) when fused is set, else through a plain
// semisort, and returns an output the next call through ws cannot
// overwrite.
func runRoute(ws *Workspace, a []rec.Record, cfg *Config, fused bool) ([]rec.Record, error) {
	if fused {
		out, _, err := sampledRun(ws, a, cfg)
		return out, err
	}
	out, _, err := SemisortWS(ws, a, cfg)
	return out, err
}

// TestCountingDeterministic: the counting route's (a fused reduce) and
// the dovetail route's output must be byte-identical across worker
// counts and repeated runs — the counting scatter's per-bucket order
// equals input order regardless of block boundaries, and the radix
// kernel is deterministic by construction.
func TestCountingDeterministic(t *testing.T) {
	for _, strat := range []ScatterStrategy{ScatterCounting, ScatterDovetail} {
		for _, d := range diffMatrix(20000, 123) {
			var first []rec.Record
			for _, procs := range []int{1, 2, 4, 4} {
				out, err := runRoute(nil, d.data, &Config{Procs: procs, Seed: 3}, strat == ScatterCounting)
				if err != nil {
					t.Fatalf("%v/%s procs=%d: %v", strat, d.name, procs, err)
				}
				if first == nil {
					first = out
					continue
				}
				for i := range out {
					if out[i] != first[i] {
						t.Fatalf("%v/%s: procs=%d diverges from procs=1 at index %d: %v vs %v",
							strat, d.name, procs, i, out[i], first[i])
					}
				}
			}
		}
	}
}

// TestWorkspaceReuseByteIdentical: reusing a warm Workspace must not
// change the output — every call with the same input, seed and strategy
// is byte-identical to a fresh-workspace run. Covered where the route
// itself is deterministic: the counting scatter (a fused histogram) and
// the dovetail route at any worker count, the probing scatter at one
// worker (its CAS placement is interleaving-dependent beyond that).
func TestWorkspaceReuseByteIdentical(t *testing.T) {
	cases := []struct {
		strat ScatterStrategy
		procs int
	}{
		{ScatterCounting, 1},
		{ScatterCounting, 2},
		{ScatterCounting, 8},
		{ScatterDovetail, 1},
		{ScatterDovetail, 2},
		{ScatterDovetail, 8},
		{ScatterProbing, 1},
	}
	for _, d := range diffMatrix(20000, 205) {
		for _, tc := range cases {
			cfg := &Config{Procs: tc.procs, Seed: 17, ScatterStrategy: tc.strat}
			fused := tc.strat == ScatterCounting
			ref, err := runRoute(nil, d.data, cfg, fused)
			if err != nil {
				t.Fatalf("%s %v procs=%d: %v", d.name, tc.strat, tc.procs, err)
			}
			ws := &Workspace{}
			for call := 0; call < 3; call++ {
				out, err := runRoute(ws, d.data, cfg, fused)
				if err != nil {
					t.Fatalf("%s %v procs=%d call %d: %v", d.name, tc.strat, tc.procs, call, err)
				}
				for i := range out {
					if out[i] != ref[i] {
						t.Fatalf("%s %v procs=%d call %d: reused workspace diverges at %d: %v vs %v",
							d.name, tc.strat, tc.procs, call, i, out[i], ref[i])
					}
				}
			}
		}
	}
}
