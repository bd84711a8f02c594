package core

// Steady-state allocation contract of the pipeline-over-Workspace
// refactor: a warm Workspace at Procs == 1 executes the whole pipeline
// without allocating anything beyond the returned output slice (and
// nothing at all through SemisortShared). testing.AllocsPerRun pins
// GOMAXPROCS to 1, and parallel dispatch inherently allocates goroutine
// closures, so the zero-allocation contract is stated — and tested — for
// the serial dispatch path. At Procs > 1 the default route's contract is
// a fixed per-call bound that does not grow with n
// (TestSteadyStateAllocsParallelDefault).

import (
	"fmt"
	"testing"

	"repro/internal/distgen"
	"repro/internal/rec"
)

// allocDists pairs a heavy-duplication and a light (all-distinct)
// distribution, so both bucketOf paths and both Auto resolutions are
// covered.
func allocDists(n int) []diffDist {
	return []diffDist{
		{"heavy", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Zipfian, Param: 1000}, 7)},
		{"light", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: float64(n)}, 8)},
	}
}

// allocKinds is the Phase 4 kernel dimension of the steady-state gates:
// every kernel owns different arena buffers (naming table, label arrays,
// sub-bucket counts), so each must be exercised to pin the
// zero-allocation contract.
var allocKinds = []LocalSortKind{LocalSortHybrid, LocalSortCounting, LocalSortBucket}

func TestSteadyStateAllocsWS(t *testing.T) {
	const n = 60000
	for _, strat := range []ScatterStrategy{ScatterAuto, ScatterProbing, ScatterCounting, ScatterDovetail} {
		for _, kind := range allocKinds {
			for _, d := range allocDists(n) {
				t.Run(fmt.Sprintf("%v/%v/%s", strat, kind, d.name), func(t *testing.T) {
					cfg := &Config{Procs: 1, Seed: 11, ScatterStrategy: strat, LocalSort: kind}
					ws := &Workspace{}
					for i := 0; i < 2; i++ { // warm the workspace
						if _, _, err := SemisortWS(ws, d.data, cfg); err != nil {
							t.Fatal(err)
						}
					}
					allocs := testing.AllocsPerRun(10, func() {
						if _, _, err := SemisortWS(ws, d.data, cfg); err != nil {
							t.Fatal(err)
						}
					})
					// One allocation is the returned output slice; at most two
					// more are tolerated for incidental runtime effects.
					if allocs > 3 {
						t.Errorf("SemisortWS steady state: %.1f allocs/run, want <= 3 (1 output + <= 2)", allocs)
					}
				})
			}
		}
	}
}

func TestSteadyStateAllocsShared(t *testing.T) {
	const n = 60000
	for _, strat := range []ScatterStrategy{ScatterAuto, ScatterProbing, ScatterCounting, ScatterDovetail} {
		for _, kind := range allocKinds {
			for _, d := range allocDists(n) {
				t.Run(fmt.Sprintf("%v/%v/%s", strat, kind, d.name), func(t *testing.T) {
					cfg := &Config{Procs: 1, Seed: 11, ScatterStrategy: strat, LocalSort: kind}
					ws := &Workspace{}
					for i := 0; i < 2; i++ {
						if _, _, err := SemisortShared(ws, d.data, cfg); err != nil {
							t.Fatal(err)
						}
					}
					allocs := testing.AllocsPerRun(10, func() {
						if _, _, err := SemisortShared(ws, d.data, cfg); err != nil {
							t.Fatal(err)
						}
					})
					if allocs > 2 {
						t.Errorf("SemisortShared steady state: %.1f allocs/run, want <= 2", allocs)
					}
				})
			}
		}
	}
}

func TestSemisortInto(t *testing.T) {
	a := distgen.Generate(2, 20000, distgen.Spec{Kind: distgen.Zipfian, Param: 500}, 3)
	// Counting scatter: deterministic placement at any Procs, so the
	// in-place output can be compared record-for-record against want.
	cfg := &Config{Procs: 2, Seed: 9, ScatterStrategy: ScatterCounting}
	ws := &Workspace{}
	want, _, err := SemisortWS(ws, a, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Large enough dst: used in place.
	dst := make([]rec.Record, len(a))
	out, _, err := SemisortInto(ws, dst, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[0] {
		t.Error("SemisortInto did not write into the provided dst")
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("SemisortInto output diverges at %d", i)
		}
	}

	// Too-small dst: a fresh slice is allocated.
	small := make([]rec.Record, len(a)/2)
	out, _, err = SemisortInto(ws, small, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(a) {
		t.Fatalf("len(out) = %d, want %d", len(out), len(a))
	}

	// dst aliasing the input must not be scribbled over while the scatter
	// reads the input; a fresh output is used instead.
	in := append([]rec.Record(nil), a...)
	out, _, err = SemisortInto(ws, in, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) > 0 && &out[0] == &in[0] {
		t.Error("SemisortInto used a dst that aliases the input")
	}
	for i := range in {
		if in[i] != a[i] {
			t.Fatalf("input was modified at index %d", i)
		}
	}
}

// TestSharedOutputFedBackAsInput: the documented SemisortShared pattern —
// the previous output becomes the next input — must detect the aliasing
// and produce a correct grouping anyway.
func TestSharedOutputFedBackAsInput(t *testing.T) {
	a := distgen.Generate(2, 20000, distgen.Spec{Kind: distgen.Zipfian, Param: 500}, 4)
	cfg := &Config{Procs: 2, Seed: 9, ScatterStrategy: ScatterCounting}
	ws := &Workspace{}
	out, _, err := SemisortShared(ws, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := rec.KeyCounts(out)
	out2, _, err := SemisortShared(ws, out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSemisorted(t, "fed-back", out, out2)
	got := rec.KeyCounts(out2)
	for k, c := range ref {
		if got[k] != c {
			t.Fatalf("key %#x: %d records, want %d", k, got[k], c)
		}
	}
}

func TestWorkspaceRelease(t *testing.T) {
	a := distgen.Generate(2, 30000, distgen.Spec{Kind: distgen.Uniform, Param: 30000}, 5)
	ws := &Workspace{}
	if _, _, err := SemisortShared(ws, a, &Config{Procs: 2}); err != nil {
		t.Fatal(err)
	}
	if ws.RetainedBytes() == 0 {
		t.Fatal("warm workspace reports zero retained bytes")
	}
	ws.Release()
	if got := ws.RetainedBytes(); got != 0 {
		t.Fatalf("RetainedBytes() = %d after Release, want 0", got)
	}
	// The workspace must remain usable.
	out, _, err := SemisortWS(ws, a, &Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkSemisorted(t, "post-release", a, out)
}

func TestMaxRetainedBytes(t *testing.T) {
	a := distgen.Generate(2, 30000, distgen.Spec{Kind: distgen.Uniform, Param: 30000}, 6)
	ws := &Workspace{}

	// An unreachable cap drops everything.
	if _, _, err := SemisortWS(ws, a, &Config{Procs: 2, MaxRetainedBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if got := ws.RetainedBytes(); got != 0 {
		t.Fatalf("RetainedBytes() = %d under cap 1, want 0", got)
	}

	// A generous cap must be respected while still retaining something.
	const capBytes = 1 << 20
	if _, _, err := SemisortWS(ws, a, &Config{Procs: 2, MaxRetainedBytes: capBytes}); err != nil {
		t.Fatal(err)
	}
	got := ws.RetainedBytes()
	if got > capBytes {
		t.Fatalf("RetainedBytes() = %d, exceeds cap %d", got, capBytes)
	}
	if got == 0 {
		t.Error("cap dropped everything; expected partial retention")
	}

	// No cap: retention unconstrained and reused next call.
	if _, _, err := SemisortWS(ws, a, &Config{Procs: 2}); err != nil {
		t.Fatal(err)
	}
	if ws.RetainedBytes() == 0 {
		t.Error("uncapped workspace retained nothing")
	}
}

// TestBoostMapRetained: the retry ladder's per-bucket boost map is
// workspace-owned — armed retries reuse one cleared map instead of
// allocating a fresh one per overflowing call.
func TestBoostMapRetained(t *testing.T) {
	ws := &Workspace{}
	m1 := ws.getBoost()
	m1[3] = 4
	m1[9] = 16
	m2 := ws.getBoost()
	if len(m2) != 0 {
		t.Fatalf("getBoost returned a non-empty map: %v", m2)
	}
	m2[1] = 2
	if len(m1) != 1 {
		t.Fatal("getBoost did not return the retained map")
	}
}

// coreParallelAllocBound is the allocation budget of a warm default-route
// SemisortShared at Procs 2 on a light input: the goroutines and closures
// of each phase's parallel loops, about 120 in all (the radix kernel's
// share is bounded by sortint's own gate). It does not grow with n: the
// count tables and scratch are workspace-owned, and both radix
// recursions (the Phase 1 sample sort and the Phase 4 kernel) hand their
// subtrees below 2^15 records to closure-free serial code. Measured
// 99 allocs at 2^18 and 122 at 2^20, 2^21 and 2^22.
const coreParallelAllocBound = 160

func TestSteadyStateAllocsParallelDefault(t *testing.T) {
	for _, n := range []int{1 << 18, 1 << 20} {
		a := distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: float64(n)}, 8)
		cfg := &Config{Procs: 2, Seed: 11}
		ws := &Workspace{}
		for i := 0; i < 2; i++ {
			if _, _, err := SemisortShared(ws, a, cfg); err != nil {
				t.Fatal(err)
			}
		}
		_, stats, err := SemisortShared(ws, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ScatterStrategy != "dovetail" {
			t.Fatalf("n=%d: default route resolved to %v, want the dovetail route", n, stats.ScatterStrategy)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := SemisortShared(ws, a, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > coreParallelAllocBound {
			t.Errorf("n=%d: SemisortShared at Procs 2: %.0f allocs/run, want <= %d", n, allocs, coreParallelAllocBound)
		}
	}
}
