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
// distribution, so both classifier paths and both Auto resolutions are
// covered.
func allocDists(n int) []diffDist {
	return []diffDist{
		{"heavy", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Zipfian, Param: 1000}, 7)},
		{"light", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: float64(n)}, 8)},
	}
}

// allocFormerKinds keeps the middle level of the steady-state subtest
// names (strategy/kernel/distribution) from when Config.LocalSort chose
// among three Phase 4 kernels. The knob is gone and every caller now runs
// the one Phase 4 kernel, so each label runs the same config from a cold
// Workspace: a caller that used to pick any of the retired kernels keeps
// the zero-allocation steady state under the test name it had.
var allocFormerKinds = []string{"hybrid", "counting", "bucket"}

func TestSteadyStateAllocsWS(t *testing.T) {
	const n = 60000
	for _, strat := range []ScatterStrategy{ScatterAuto, ScatterProbing, ScatterCounting, ScatterDovetail} {
		for _, kind := range allocFormerKinds {
			for _, d := range allocDists(n) {
				t.Run(fmt.Sprintf("%v/%s/%s", strat, kind, d.name), func(t *testing.T) {
					cfg := &Config{Procs: 1, Seed: 11, ScatterStrategy: strat}
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
		for _, kind := range allocFormerKinds {
			for _, d := range allocDists(n) {
				t.Run(fmt.Sprintf("%v/%s/%s", strat, kind, d.name), func(t *testing.T) {
					cfg := &Config{Procs: 1, Seed: 11, ScatterStrategy: strat}
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
	// The default route is deterministic at any Procs, so the in-place
	// output can be compared record-for-record against want.
	cfg := &Config{Procs: 2, Seed: 9}
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
	cfg := &Config{Procs: 2, Seed: 9}
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

// TestWorkspaceRegrowHeadroom: a warm Workspace allocates its output at
// exactly n, and when a later call outgrows it it reserves 1/8
// headroom, so every size up to n+n/8 after that runs in the same
// buffer — one reallocation, not one per new maximum — and
// RetainedBytes counts the headroom. The radix kernel's child scratch
// follows the same policy (TestDovetailChildScratchRegrow in
// internal/sortint).
func TestWorkspaceRegrowHeadroom(t *testing.T) {
	const n = 1 << 14
	a := distgen.Generate(2, n+n/8, distgen.Spec{Kind: distgen.Uniform, Param: n}, 9)
	cfg := &Config{Procs: 1}
	ws := &Workspace{}
	if _, _, err := SemisortShared(ws, a[:n], cfg); err != nil {
		t.Fatal(err)
	}
	if cap(ws.out) != n {
		t.Fatalf("first call: cap(out) = %d, want exactly %d", cap(ws.out), n)
	}
	retained := ws.RetainedBytes()
	last := &ws.out[:1][0]
	reallocs := 0
	for m := n + 1; m <= n+n/8; m += n / 64 {
		out, _, err := SemisortShared(ws, a[:m], cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkSemisorted(t, fmt.Sprintf("m=%d", m), a[:m], out)
		if b := &ws.out[:1][0]; b != last {
			reallocs++
			last = b
		}
	}
	if reallocs != 1 {
		t.Errorf("%d reallocations over sizes n+1..n+n/8, want 1", reallocs)
	}
	const want = (n + 1) + (n+1)/8
	if cap(ws.out) != want {
		t.Errorf("after regrow: cap(out) = %d, want %d", cap(ws.out), want)
	}
	if got, grown := ws.RetainedBytes()-retained, int64((want-n)*rec.RecordSize); got < grown {
		t.Errorf("RetainedBytes grew by %d, want at least the %d bytes of regrown capacity", got, grown)
	}
}

// TestDovetailRouteRetainedBytes: after a warm plain SemisortShared on
// the radix kernel the workspace pins its output and the kernel's tables,
// whose child scratch is sized to the top pass's children (two workers'
// slices of about 2,048 records here), not a record per input record.
func TestDovetailRouteRetainedBytes(t *testing.T) {
	const n = 1 << 20
	a := distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: n}, 17)
	cfg := &Config{Procs: 2}
	ws := &Workspace{}
	for i := 0; i < 2; i++ {
		out, stats, err := SemisortShared(ws, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ScatterStrategy != "dovetail" {
			t.Fatalf("route %q, want dovetail", stats.ScatterStrategy)
		}
		checkSemisorted(t, "warm", a, out)
	}
	outBytes := int64(cap(ws.out)) * rec.RecordSize
	got := ws.RetainedBytes()
	t.Logf("retains the %d-byte output plus %d bytes", outBytes, got-outBytes)
	if got > outBytes+2<<20 {
		t.Errorf("RetainedBytes() = %d, want at most the %d-byte output plus 2 MiB", got, outBytes)
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
