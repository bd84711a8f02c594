package core

// Duplication-spectrum differential suite for the skew-adaptive planner.
// The sweep walks the distinct-key fraction from 2^0 (every key unique)
// down to 2^-20 (massive duplication) and asserts, at every point, that
// the dovetail route (a) groups exactly like the sequential reference,
// (b) is byte-deterministic across worker counts, and (c) routes the way
// the planner promises: every plain semisort goes to the radix kernel,
// whose nodes run plain radix passes on the near-unique end and pull
// heavy keys out of their distribution passes on the duplicate-heavy
// end, with Stats.PlannerRoutes recording the flip. This is the
// acceptance gate for the radix kernel as the default route.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/distgen"
	"repro/internal/hash"
	"repro/internal/rec"
	"repro/internal/seqsemi"
)

// spectrumInput draws n records whose keys are sampled uniformly from a
// pool of max(1, n>>exp) hashed keys: exp = 0 is all-distinct in
// expectation, exp = 20 collapses every practical n onto one key.
func spectrumInput(n, exp int, seed int64) []rec.Record {
	pool := n >> exp
	if pool < 1 {
		pool = 1
	}
	r := rand.New(rand.NewSource(seed))
	f := hash.NewFamily(uint64(seed) + 1)
	a := make([]rec.Record, n)
	for i := range a {
		a[i] = rec.Record{Key: f.Hash(uint64(r.Int63n(int64(pool)))), Value: uint64(i)}
	}
	return a
}

// TestDovetailDuplicationSpectrum is the full sweep: for each
// (n, distinct-fraction) point the dovetail output is compared against
// the sequential reference and against itself at GOMAXPROCS-style worker
// counts 1, 2 and 8.
func TestDovetailDuplicationSpectrum(t *testing.T) {
	for _, n := range []int{1000, 100000} {
		for exp := 0; exp <= 20; exp += 4 {
			a := spectrumInput(n, exp, int64(1000*n+exp))
			ref := seqsemi.TwoPhase(append([]rec.Record(nil), a...))
			refKeys := rec.KeyCounts(ref)

			var first []rec.Record
			for _, procs := range []int{1, 2, 8} {
				label := fmt.Sprintf("n=%d/exp=%d/procs=%d", n, exp, procs)
				out, stats, err := Semisort(a, &Config{Procs: procs, Seed: 11, ScatterStrategy: ScatterDovetail})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameGrouping(t, label, a, out, refKeys)
				if first == nil {
					first = out
				} else {
					for i := range out {
						if out[i] != first[i] {
							t.Fatalf("%s: diverges from procs=1 at index %d: %v vs %v",
								label, i, out[i], first[i])
						}
					}
				}
				// The kernel's passes are all stable, so payloads must
				// appear in input order.
				rec.Runs(out, func(start, end int) {
					for i := start + 1; i < end; i++ {
						if out[i].Value < out[i-1].Value {
							t.Fatalf("%s: group at [%d,%d) not in input order at %d",
								label, start, end, i)
						}
					}
				})

				routes := stats.PlannerRoutes
				if stats.ScatterStrategy != "dovetail" || routes.ScatterNodes != 0 || routes.RadixNodes == 0 {
					t.Errorf("%s: route %q with %+v, want the dovetail route and its top-level hand-off",
						label, stats.ScatterStrategy, routes)
				}
				switch {
				case exp == 0:
					// Near-unique: no node finds a heavy key.
					if routes.DovetailNodes != 0 || stats.HeavyRecords != 0 {
						t.Errorf("%s: unique keys pulled %d heavy records: %+v", label, stats.HeavyRecords, routes)
					}
				case exp >= 20 && n >= 2048:
					// One key: the kernel's top node, large enough to
					// sample, places every record in one heavy bin.
					if routes.DovetailNodes != 1 || routes.HeavyKeysDovetailed != 1 || stats.HeavyRecords != n {
						t.Errorf("%s: one-key input: %d heavy records, %+v", label, stats.HeavyRecords, routes)
					}
				}
			}
		}
	}
}

// TestSpectrumPlannerFlip pins the monotone shape of the routing across
// the sweep at a fixed n: every point takes the dovetail route (the
// planner decides from the call, not the data), and as duplication rises
// the kernel's pure-radix routing can only give way to heavy-key
// extraction, never the reverse. It asserts that both regimes occur and
// that once the kernel leaves the pure-radix regime it never returns at
// higher duplication.
func TestSpectrumPlannerFlip(t *testing.T) {
	const n = 100000
	sawRadixOnly, sawDovetail := false, false
	leftPureRadix := false
	for exp := 0; exp <= 20; exp++ {
		a := spectrumInput(n, exp, int64(7000+exp))
		_, stats, err := Semisort(a, &Config{Procs: 4, Seed: 29, ScatterStrategy: ScatterDovetail})
		if err != nil {
			t.Fatalf("exp=%d: %v", exp, err)
		}
		r := stats.PlannerRoutes
		pureRadix := r.ScatterNodes == 0 && r.HeavyKeysDovetailed == 0 && r.RadixNodes > 0
		if pureRadix {
			sawRadixOnly = true
			if leftPureRadix {
				t.Errorf("exp=%d: planner returned to the pure-radix regime after leaving it: %+v", exp, r)
			}
		} else {
			leftPureRadix = true
		}
		if r.DovetailNodes > 0 && r.HeavyKeysDovetailed > 0 {
			sawDovetail = true
		}
		if stats.ScatterStrategy != "dovetail" || r.ScatterNodes != 0 {
			t.Errorf("exp=%d: route %q with %+v, want dovetail", exp, stats.ScatterStrategy, r)
		}
		t.Logf("exp=%2d routes=%+v strategy=%s", exp, r, stats.ScatterStrategy)
	}
	if !sawRadixOnly {
		t.Error("sweep never hit the pure-radix regime at low duplication")
	}
	if !sawDovetail {
		t.Error("sweep never hit the heavy-extraction regime at high duplication")
	}
}

// TestDovetailDefaultByteDeterminismAcrossProcs pins the default
// planner's determinism contract: with a zero ScatterStrategy (and only
// Procs varying), every distgen shape — HeavyHead, 16 keys and one key
// included — must give byte-identical output at Procs 1, 2 and 8, both
// for a plain semisort (the dovetail route, groups in input order) and
// for a fused reduce, and every call must finish in one attempt.
// The sampling shape (rounds, sample size, heavy keys) must agree too:
// the fused reduce samples, and the plain call's heavy keys are the
// kernel's, whose node samples are fixed strides.
// The default never resolves to the CAS probing scatter, whose races
// reorder records within a group.
func TestDovetailDefaultByteDeterminismAcrossProcs(t *testing.T) {
	const n = 60000
	shapes := []struct {
		name string
		spec distgen.Spec
	}{
		{"uniform", distgen.Spec{Kind: distgen.Uniform, Param: n}},
		{"uniform-dup", distgen.Spec{Kind: distgen.Uniform, Param: n / 100}},
		{"exponential", distgen.Spec{Kind: distgen.Exponential, Param: n / 1000}},
		{"zipfian", distgen.Spec{Kind: distgen.Zipfian, Param: 10000}},
		{"heavy-head", distgen.Spec{Kind: distgen.HeavyHead, Param: 4}},
		{"keys16", distgen.Spec{Kind: distgen.Uniform, Param: 16}},
		{"all-equal", distgen.Spec{Kind: distgen.Uniform, Param: 1}},
	}
	for _, sh := range shapes {
		a := distgen.Generate(2, n, sh.spec, 41)
		refKeys := rec.KeyCounts(seqsemi.TwoPhase(append([]rec.Record(nil), a...)))
		_, refSum, refVals := refAgg(a)
		var plain, fused []rec.Record
		var plainStats Stats
		for _, procs := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s/procs=%d", sh.name, procs)
			cfg := &Config{Procs: procs, Seed: 17}
			out, stats, err := Semisort(a, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameGrouping(t, label, a, out, refKeys)
			if stats.ScatterStrategy != "dovetail" || stats.Attempts != 1 {
				t.Errorf("%s: route %q in %d attempts, want dovetail in 1",
					label, stats.ScatterStrategy, stats.Attempts)
			}
			// The kernel's passes are stable: every group keeps its
			// records in input order (Value is the input index).
			rec.Runs(out, func(start, end int) {
				for i := start + 1; i < end; i++ {
					if out[i].Value < out[i-1].Value {
						t.Fatalf("%s: group at [%d,%d) not in input order at %d", label, start, end, i)
					}
				}
			})
			if plain == nil {
				plain, plainStats = out, stats
			} else {
				if !sameRecords(out, plain) {
					t.Fatalf("%s: plain output differs from procs=1", label)
				}
				if stats.SampleRounds != plainStats.SampleRounds || stats.SampleSize != plainStats.SampleSize ||
					stats.HeavyKeys != plainStats.HeavyKeys {
					t.Errorf("%s: sampled %d rounds/%d keys/%d heavy, procs=1 %d/%d/%d", label,
						stats.SampleRounds, stats.SampleSize, stats.HeavyKeys,
						plainStats.SampleRounds, plainStats.SampleSize, plainStats.HeavyKeys)
				}
			}

			red, reps, stats, err := ReduceShared(nil, a, cfg, sumSpec())
			if err != nil {
				t.Fatalf("%s fused: %v", label, err)
			}
			checkReduced(t, label+" fused", red, reps, refSum, refVals)
			if stats.ScatterStrategy != "counting" || stats.Attempts != 1 {
				t.Errorf("%s fused: route %q in %d attempts, want counting in 1",
					label, stats.ScatterStrategy, stats.Attempts)
			}
			if fused == nil {
				fused = red // a nil Workspace: nothing reuses this buffer
			} else if !sameRecords(red, fused) {
				t.Fatalf("%s: fused output differs from procs=1", label)
			}
		}
	}
}
