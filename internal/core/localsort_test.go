package core

// Phase 4 tests: arena reuse across segments must not leak naming-table
// state, and the size-aware schedule must preserve the pipeline's output
// while reporting its range count.

import (
	"math/rand"
	"testing"

	"repro/internal/distgen"
	"repro/internal/rec"
)

// TestArenaCountingSemisortGrouped: the arena's flat naming table, reused
// dirty across wildly different segments, must not leak stale entries
// between segments. reduceSeg is the table's only user, so the test
// drives it with a fold that counts each group (high 32 bits) and sums
// its values (low 32 bits), and checks every segment's per-key folds,
// first-appearance group order and representatives against a map.
func TestArenaCountingSemisortGrouped(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sp := &ReduceSpec{Fold: func(acc, _, v uint64) uint64 { return acc + 1<<32 + v }}
	var ar lsArena
	sizes := []int{1, 2, 3, 17, 400, 4000}
	for trial := 0; trial < 50; trial++ {
		n := sizes[r.Intn(len(sizes))]
		distinct := 1 + r.Intn(n)
		seg := make([]rec.Record, n)
		for i := range seg {
			k := r.Uint64() % uint64(distinct)
			if k == 1 {
				k = ^uint64(0) // the table must accept every uint64 key
			}
			seg[i] = rec.Record{Key: k, Value: uint64(i)}
		}
		want := map[uint64]uint64{}
		first := map[uint64]uint64{}
		var order []uint64
		for _, x := range seg {
			if _, ok := want[x.Key]; !ok {
				first[x.Key] = x.Value
				order = append(order, x.Key)
			}
			want[x.Key] += 1<<32 + x.Value
		}
		reps := make([]uint64, n)
		m := ar.reduceSeg(sp, seg, reps)
		if m != len(order) {
			t.Fatalf("trial %d (n=%d): %d groups, want %d", trial, n, m, len(order))
		}
		for l, k := range order {
			if seg[l].Key != k || seg[l].Value != want[k] || reps[l] != first[k] {
				t.Fatalf("trial %d (n=%d) group %d: got {%#x %#x} rep %d, want {%#x %#x} rep %d",
					trial, n, l, seg[l].Key, seg[l].Value, reps[l], k, want[k], first[k])
			}
		}
	}
}

// TestSizeAwareScheduleStats: a parallel run reports a size-aware range
// count in (0, 8*procs]; a serial run collapses to one range. Output must
// be identical across both (the counting scatter, which a fused reduce
// runs, is deterministic at any procs).
func TestSizeAwareScheduleStats(t *testing.T) {
	a := distgen.Generate(4, 60000, distgen.Spec{Kind: distgen.Uniform, Param: 60000}, 12)
	base := &Config{Procs: 4, Seed: 5}
	out, _, st, err := ReduceShared(nil, a, base, sumSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.LocalSortRanges <= 0 || st.LocalSortRanges > 8*4 {
		t.Errorf("LocalSortRanges = %d, want in (0, 32]", st.LocalSortRanges)
	}

	serial := *base
	serial.Procs = 1
	outS, _, stS, err := ReduceShared(nil, a, &serial, sumSpec())
	if err != nil {
		t.Fatal(err)
	}
	if stS.LocalSortRanges != 1 {
		t.Errorf("serial LocalSortRanges = %d, want 1", stS.LocalSortRanges)
	}

	for i := range out {
		if out[i] != outS[i] {
			t.Fatalf("schedule changed output at %d: sized %v serial %v", i, out[i], outS[i])
		}
	}
}

// TestSizeAwareScheduleProbing: the same range-count invariants on the
// probing path, which weighs buckets by slot-range length. Probing
// reorders records within groups above Procs 1, so the parallel run is
// checked for grouping rather than bytes.
func TestSizeAwareScheduleProbing(t *testing.T) {
	a := distgen.Generate(4, 60000, distgen.Spec{Kind: distgen.Zipfian, Param: 1000}, 13)
	for _, procs := range []int{1, 4} {
		out, st, err := Semisort(a, &Config{Procs: procs, Seed: 5, ScatterStrategy: ScatterProbing})
		if err != nil {
			t.Fatal(err)
		}
		if procs == 1 && st.LocalSortRanges != 1 {
			t.Errorf("serial LocalSortRanges = %d, want 1", st.LocalSortRanges)
		}
		if st.LocalSortRanges <= 0 || st.LocalSortRanges > 8*procs {
			t.Errorf("procs=%d: LocalSortRanges = %d, want in (0, %d]", procs, st.LocalSortRanges, 8*procs)
		}
		checkSemisorted(t, "probing size-aware schedule", a, out)
	}
}
