package core

// Differential and recovery coverage for the fused collect-reduce
// (reduce.go): every procs × distribution must agree with a sequential
// map-built reference whatever ScatterStrategy says (a fused call always
// runs counting), overflow faults must never reach it, the scratch cap
// must degrade to the run-walk fallback, and the warm path must obey the
// steady-state allocation contract.

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/distgen"
	"repro/internal/fault"
	"repro/internal/rec"
)

// sumSpec is the differential workhorse: a commutative fold (value sum)
// whose result is independent of fold and merge order.
func sumSpec() ReduceSpec {
	return ReduceSpec{
		Identity: 0,
		Fold:     func(acc, _, v uint64) uint64 { return acc + v },
		Merge:    func(a, _, b, _ uint64) uint64 { return a + b },
	}
}

// refAgg builds the reference aggregation: per-key count, value sum, and
// the set of values seen (for representative checks).
func refAgg(a []rec.Record) (count map[uint64]uint64, sum map[uint64]uint64, vals map[uint64]map[uint64]bool) {
	count = make(map[uint64]uint64)
	sum = make(map[uint64]uint64)
	vals = make(map[uint64]map[uint64]bool)
	for _, r := range a {
		count[r.Key]++
		sum[r.Key] += r.Value
		s := vals[r.Key]
		if s == nil {
			s = make(map[uint64]bool)
			vals[r.Key] = s
		}
		s[r.Value] = true
	}
	return count, sum, vals
}

// checkReduced asserts out/reps form exactly the reference grouping: one
// record per distinct key, the expected accumulator, and a representative
// drawn from that key's actual values.
func checkReduced(t *testing.T, label string, out []rec.Record, reps []uint64,
	want map[uint64]uint64, vals map[uint64]map[uint64]bool) {
	t.Helper()
	if len(out) != len(want) {
		t.Fatalf("%s: %d groups, reference has %d", label, len(out), len(want))
	}
	if len(reps) != len(out) {
		t.Fatalf("%s: len(reps)=%d, len(out)=%d", label, len(reps), len(out))
	}
	seen := make(map[uint64]bool, len(out))
	for i, r := range out {
		if seen[r.Key] {
			t.Fatalf("%s: key %#x appears in two groups", label, r.Key)
		}
		seen[r.Key] = true
		w, ok := want[r.Key]
		if !ok {
			t.Fatalf("%s: group key %#x not in input", label, r.Key)
		}
		if r.Value != w {
			t.Fatalf("%s: key %#x accumulator = %d, want %d", label, r.Key, r.Value, w)
		}
		if !vals[r.Key][reps[i]] {
			t.Fatalf("%s: key %#x representative %d is not one of the key's values", label, r.Key, reps[i])
		}
	}
}

// fusedStrategies are the ScatterStrategy values the fused tests cover:
// the default, and an explicit ScatterProbing that a fused call must
// ignore (it still resolves to counting).
var fusedStrategies = []ScatterStrategy{ScatterAuto, ScatterProbing}

// checkCountingRoute asserts a fused call ran the counting route in one
// attempt.
func checkCountingRoute(t *testing.T, label string, stats Stats) {
	t.Helper()
	if stats.ScatterStrategy != "counting" || stats.Attempts != 1 {
		t.Fatalf("%s: route %q in %d attempts, want counting in 1", label, stats.ScatterStrategy, stats.Attempts)
	}
}

// TestReduceDifferential is the full matrix: strategies × procs ×
// distributions, fused sum-reduce against the map reference.
func TestReduceDifferential(t *testing.T) {
	const n = 20000
	for _, d := range diffMatrix(n, 301) {
		_, sum, vals := refAgg(d.data)
		for _, strat := range fusedStrategies {
			for _, procs := range []int{1, 4} {
				label := fmt.Sprintf("%s/%v/procs=%d", d.name, strat, procs)
				ws := &Workspace{}
				out, reps, stats, err := ReduceShared(ws, d.data,
					&Config{Procs: procs, Seed: 5, ScatterStrategy: strat}, sumSpec())
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkReduced(t, label, out, reps, sum, vals)
				checkCountingRoute(t, label, stats)
				if stats.ReducedGroups != len(out) {
					t.Errorf("%s: ReducedGroups = %d, want %d", label, stats.ReducedGroups, len(out))
				}
			}
		}
	}
}

// TestHistogramDifferential: HistogramShared must reproduce the key-count
// reference on every strategy, and the counts must total n.
func TestHistogramDifferential(t *testing.T) {
	const n = 20000
	for _, d := range diffMatrix(n, 409) {
		count, _, vals := refAgg(d.data)
		for _, strat := range fusedStrategies {
			label := fmt.Sprintf("%s/%v", d.name, strat)
			out, reps, stats, err := HistogramShared(nil, d.data,
				&Config{Procs: 4, Seed: 7, ScatterStrategy: strat})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkReduced(t, label, out, reps, count, vals)
			checkCountingRoute(t, label, stats)
			var total uint64
			for _, r := range out {
				total += r.Value
			}
			if total != uint64(n) {
				t.Fatalf("%s: histogram totals %d, want %d", label, total, n)
			}
		}
	}
}

// TestReduceCountingDeterministic: with a commutative fold the counting
// route's fused output (group order and accumulators) is identical
// across worker counts and repeated runs.
func TestReduceCountingDeterministic(t *testing.T) {
	for _, d := range diffMatrix(20000, 511) {
		var first []rec.Record
		for _, procs := range []int{1, 2, 4, 4} {
			out, _, _, err := ReduceShared(nil, d.data,
				&Config{Procs: procs, Seed: 3}, sumSpec())
			if err != nil {
				t.Fatalf("%s procs=%d: %v", d.name, procs, err)
			}
			if first == nil {
				first = append([]rec.Record(nil), out...)
				continue
			}
			if len(out) != len(first) {
				t.Fatalf("%s procs=%d: %d groups vs %d at procs=1", d.name, procs, len(out), len(first))
			}
			for i := range out {
				if out[i] != first[i] {
					t.Fatalf("%s: procs=%d diverges from procs=1 at group %d: %v vs %v",
						d.name, procs, i, out[i], first[i])
				}
			}
		}
	}
}

// TestReduceFirstFoldContract pins the documented FoldFunc contract: on a
// group's first fold the accumulator is Identity and rep == value.
func TestReduceFirstFoldContract(t *testing.T) {
	// Every fold result sets the top bit and Identity leaves it clear, so
	// "is this the group's first fold" is detected exactly (a plain
	// acc == Identity check can collide with a coincidental sum).
	const tag = uint64(1) << 63
	var violations atomic.Int64
	sp := ReduceSpec{
		Identity: 0,
		Fold: func(acc, rep, v uint64) uint64 {
			if acc&tag == 0 && rep != v {
				violations.Add(1)
			}
			return (acc + v) | tag
		},
		Merge: func(a, _, b, _ uint64) uint64 { return (a + b) | tag },
	}
	for _, strat := range fusedStrategies {
		a := distgen.Generate(2, 30000, distgen.Spec{Kind: distgen.Zipfian, Param: 500}, 77)
		if _, _, _, err := ReduceShared(nil, a, &Config{Procs: 4, ScatterStrategy: strat}, sp); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if v := violations.Load(); v != 0 {
			t.Fatalf("%v: %d first folds saw rep != value", strat, v)
		}
	}
}

// TestReduceSpecValidation: a spec without Fold+Merge (and without
// Histogram) is rejected before any work happens.
func TestReduceSpecValidation(t *testing.T) {
	a := mkRecords(100, 10, 1)
	for _, sp := range []ReduceSpec{
		{},
		{Fold: func(acc, _, v uint64) uint64 { return acc + v }},
		{Merge: func(a, _, b, _ uint64) uint64 { return a + b }},
	} {
		if _, _, _, err := ReduceShared(nil, a, nil, sp); err == nil {
			t.Fatalf("spec %+v accepted, want error", sp)
		}
	}
}

// TestReduceEdgeCases: the degenerate inputs every pipeline shortcut must
// survive — empty, singleton, all keys equal, all keys distinct.
func TestReduceEdgeCases(t *testing.T) {
	for _, strat := range fusedStrategies {
		out, reps, stats, err := ReduceShared(nil, nil, &Config{ScatterStrategy: strat}, sumSpec())
		if err != nil || len(out) != 0 || len(reps) != 0 || stats.ReducedGroups != 0 {
			t.Fatalf("%v empty: out=%v reps=%v stats=%+v err=%v", strat, out, reps, stats, err)
		}
		for n := 1; n <= 40; n++ {
			a := mkRecords(n, uint64(max(n/3, 1)), int64(n))
			_, sum, vals := refAgg(a)
			out, reps, _, err := ReduceShared(nil, a, &Config{ScatterStrategy: strat}, sumSpec())
			if err != nil {
				t.Fatalf("%v n=%d: %v", strat, n, err)
			}
			checkReduced(t, fmt.Sprintf("%v/tiny n=%d", strat, n), out, reps, sum, vals)
		}
	}

	allEqual := make([]rec.Record, 10000)
	for i := range allEqual {
		allEqual[i] = rec.Record{Key: 42, Value: 1}
	}
	out, _, stats, err := ReduceShared(nil, allEqual, &Config{Procs: 4, ScatterStrategy: ScatterProbing}, sumSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != (rec.Record{Key: 42, Value: 10000}) {
		t.Fatalf("all-equal: out = %v, want one group {42, 10000}", out)
	}
	checkCountingRoute(t, "all-equal", stats)
	if stats.HeavyRecords != len(allEqual) {
		t.Errorf("all-equal: HeavyRecords = %d, want %d", stats.HeavyRecords, len(allEqual))
	}

	distinct := mkRecords(10000, 0, 9)
	_, sum, vals := refAgg(distinct)
	out, reps, _, err := ReduceShared(nil, distinct, &Config{Procs: 4}, sumSpec())
	if err != nil {
		t.Fatal(err)
	}
	checkReduced(t, "all-distinct", out, reps, sum, vals)
}

// TestReduceRetryNoDoubleCount: the Phase 3 faults that force the probing
// route's retries never reach a fused call, even one that asks for
// ScatterProbing: it runs counting in one attempt, the injector never
// fires, and every record is folded exactly once.
func TestReduceRetryNoDoubleCount(t *testing.T) {
	a := distgen.Generate(2, 30000, distgen.Spec{Kind: distgen.Zipfian, Param: 100}, 13)
	_, sum, vals := refAgg(a)
	for _, tc := range []struct {
		name  string
		point fault.Point
		times int
	}{
		{"probe-saturation", fault.ProbeSaturation, 1},
		{"scatter-overflow", fault.ScatterOverflow, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := fault.New(1).Arm(tc.point, 0, tc.times)
			withInjector(t, inj)
			out, reps, stats, err := ReduceShared(nil, a,
				&Config{Procs: 2, MaxRetries: 5, ScatterStrategy: ScatterProbing}, sumSpec())
			if err != nil {
				t.Fatalf("reduce with %s armed: %v", tc.name, err)
			}
			checkReduced(t, tc.name, out, reps, sum, vals)
			checkCountingRoute(t, tc.name, stats)
			if f := inj.Fired(tc.point); f != 0 || stats.FallbackUsed {
				t.Errorf("%s fired %d times, FallbackUsed = %v; want 0 and false", tc.name, f, stats.FallbackUsed)
			}
		})
	}
}

// TestReduceFallback: the slot cap, the fused route's one degradation,
// falls back to the sequential run-walk fold, still producing the
// reference reduction, or to ErrOverflow under DisableFallback.
func TestReduceFallback(t *testing.T) {
	a := distgen.Generate(2, 20000, distgen.Spec{Kind: distgen.Zipfian, Param: 100}, 15)
	_, sum, vals := refAgg(a)

	t.Run("slot-cap", func(t *testing.T) {
		out, reps, stats, err := ReduceShared(nil, a,
			&Config{Procs: 2, MaxSlotBytes: 512}, sumSpec())
		if err != nil {
			t.Fatalf("slot-capped reduce: %v", err)
		}
		checkReduced(t, "slot-cap", out, reps, sum, vals)
		if !stats.FallbackUsed {
			t.Error("FallbackUsed = false under an unmeetable slot cap")
		}
		if stats.ReducedGroups != len(out) {
			t.Errorf("ReducedGroups = %d, want %d", stats.ReducedGroups, len(out))
		}
	})

	t.Run("disable-fallback", func(t *testing.T) {
		out, _, _, err := ReduceShared(nil, a,
			&Config{Procs: 2, MaxSlotBytes: 512, DisableFallback: true}, sumSpec())
		if !errors.Is(err, ErrOverflow) {
			t.Fatalf("err = %v, want ErrOverflow", err)
		}
		if out != nil {
			t.Error("output non-nil alongside an error")
		}
	})
}

// TestReduceSteadyStateAllocs: a warm workspace reduce allocates nothing
// (the output is workspace-owned) in either duplication regime, matching
// the SemisortShared contract. Both strategy values run the counting
// route: a fused call ignores ScatterStrategy.
func TestReduceSteadyStateAllocs(t *testing.T) {
	const n = 60000
	for _, strat := range []ScatterStrategy{ScatterProbing, ScatterCounting} {
		for _, d := range allocDists(n) {
			for _, hist := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/%s/hist=%v", strat, d.name, hist), func(t *testing.T) {
					cfg := &Config{Procs: 1, Seed: 11, ScatterStrategy: strat}
					sp := sumSpec()
					if hist {
						sp = ReduceSpec{Histogram: true}
					}
					ws := &Workspace{}
					for i := 0; i < 2; i++ { // warm the workspace
						if _, _, _, err := ReduceShared(ws, d.data, cfg, sp); err != nil {
							t.Fatal(err)
						}
					}
					allocs := testing.AllocsPerRun(10, func() {
						if _, _, _, err := ReduceShared(ws, d.data, cfg, sp); err != nil {
							t.Fatal(err)
						}
					})
					if allocs > 2 {
						t.Errorf("ReduceShared steady state: %.1f allocs/run, want <= 2", allocs)
					}
				})
			}
		}
	}
}

// TestReduceWorkspaceAccounting: the reduce buffers participate in
// RetainedBytes, Release, and the MaxRetainedBytes cap like every other
// workspace buffer, and the workspace stays usable for plain semisorts.
func TestReduceWorkspaceAccounting(t *testing.T) {
	a := distgen.Generate(2, 30000, distgen.Spec{Kind: distgen.Zipfian, Param: 300}, 21)
	ws := &Workspace{}
	if _, _, _, err := ReduceShared(ws, a, &Config{Procs: 2}, sumSpec()); err != nil {
		t.Fatal(err)
	}
	if ws.RetainedBytes() == 0 {
		t.Fatal("warm reduce workspace reports zero retained bytes")
	}
	ws.Release()
	if got := ws.RetainedBytes(); got != 0 {
		t.Fatalf("RetainedBytes() = %d after Release, want 0", got)
	}

	if _, _, _, err := ReduceShared(ws, a, &Config{Procs: 2, MaxRetainedBytes: 1}, sumSpec()); err != nil {
		t.Fatal(err)
	}
	if got := ws.RetainedBytes(); got != 0 {
		t.Fatalf("RetainedBytes() = %d under cap 1, want 0", got)
	}

	// Interleaving fused and plain calls through one workspace is safe.
	_, sum, vals := refAgg(a)
	out, reps, _, err := ReduceShared(ws, a, &Config{Procs: 2}, sumSpec())
	if err != nil {
		t.Fatal(err)
	}
	checkReduced(t, "interleaved reduce", out, reps, sum, vals)
	plain, _, err := SemisortWS(ws, a, &Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkSemisorted(t, "interleaved plain", a, plain)
}

// TestFusedRepsDeterministic: a fused group's representative is its
// first input record's Value, heavy groups included, so reps are
// identical run to run at Procs 8 (fresh workspaces, dynamic chunk
// claiming) and across Procs 1/2/8. Heavy cells used to keep the rep of
// whichever worker slot saw the group first.
func TestFusedRepsDeterministic(t *testing.T) {
	const n = 1 << 18
	for _, d := range []struct {
		name string
		spec distgen.Spec
	}{
		{"uniform-n/256", distgen.Spec{Kind: distgen.Uniform, Param: n / 256}},
		{"exponential-n/1000", distgen.Spec{Kind: distgen.Exponential, Param: n / 1000}},
		{"zipf-2^16", distgen.Spec{Kind: distgen.Zipfian, Param: 1 << 16}},
	} {
		a := distgen.Generate(2, n, d.spec, 3)
		first := make(map[uint64]uint64)
		for i := len(a) - 1; i >= 0; i-- {
			first[a[i].Key] = a[i].Value
		}
		for _, hist := range []bool{false, true} {
			sp := sumSpec()
			if hist {
				sp = ReduceSpec{Histogram: true}
			}
			var ref []uint64
			for run, procs := range []int{8, 8, 8, 8, 8, 8, 1, 2, 8} {
				label := fmt.Sprintf("%s/hist=%v/run %d procs=%d", d.name, hist, run, procs)
				out, reps, stats, err := ReduceShared(&Workspace{}, a, &Config{Procs: procs, Seed: 3}, sp)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if stats.HeavyKeys == 0 {
					t.Fatalf("%s: no heavy keys, the input does not exercise the heavy cells", label)
				}
				for g, r := range out {
					if reps[g] != first[r.Key] {
						t.Fatalf("%s: group %#x rep %d, want its first record's value %d",
							label, r.Key, reps[g], first[r.Key])
					}
				}
				if ref == nil {
					ref = append([]uint64(nil), reps...)
				} else if !slices.Equal(reps, ref) {
					t.Fatalf("%s: reps differ from run 0", label)
				}
			}
		}
	}
}
