// Package fault provides seeded, deterministic fault injection for the
// semisort pipeline's recovery paths.
//
// The library's failure modes — bucket overflow, probe saturation, hash
// collision, worker panic, spill I/O errors, cancellation — all have
// probabilities that are astronomically small by design, so their handling
// code would otherwise be untestable. Each failure mode has an injection
// Point checked at the matching site in internal/core, internal/parallel
// and external; a test arms an Injector, enables it, runs the pipeline,
// and the chosen occurrences of each point fire deterministically.
//
//	inj := fault.New(42).Arm(fault.ScatterOverflow, 0, 2)
//	fault.Enable(inj)
//	defer fault.Disable()
//	out, stats, err := core.Semisort(a, cfg) // first two attempts overflow
//
// When no injector is enabled every check collapses to a single atomic
// nil-pointer load, so the instrumented hot paths cost nothing in
// production; checks sit at chunk/phase granularity, never per record.
// Injectors are safe for concurrent checks (the pipeline probes them from
// many worker goroutines) but must be fully armed before Enable.
package fault

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// Point identifies one injection site in the pipeline.
type Point uint8

const (
	// ScatterOverflow forces the scatter phase of an entire semisort
	// attempt to report bucket overflow; occurrences count attempts.
	ScatterOverflow Point = iota
	// ProbeSaturation forces one scatter chunk to report an exhausted
	// probe chain in its bucket; occurrences count scatter chunks.
	ProbeSaturation
	// HashCollision forces the generic front-end's collision check to
	// report a 64-bit hash collision; occurrences count verifications.
	HashCollision
	// WorkerPanic panics inside a fork–join worker; occurrences count
	// chunks executed by the flat runtime (For and SerialFor).
	WorkerPanic
	// SpillWrite makes a fault.Writer return ErrInjected; occurrences
	// count Write calls.
	SpillWrite
	// SpillRead makes a fault.Reader report EOF — and a shuffle
	// partition segment read report a short read — simulating a
	// truncated spill file; occurrences count Read/ReadAt calls.
	SpillRead
	// PhaseBoundary fires at semisort phase boundaries (five per
	// attempt, in phase order, on the sampled routes; one, before the
	// kernel call, on the dovetail route); arm it with an OnFire
	// cancellation hook.
	PhaseBoundary
	// ServerAccept fails a semisortd request at the accept/decode stage,
	// before admission, as if the body could not be read; occurrences
	// count requests reaching the accept check.
	ServerAccept
	// ServerAdmission forces the semisortd admission controller to
	// report a full queue, shedding the request with 503 + Retry-After;
	// occurrences count admission attempts.
	ServerAdmission
	// ServerHandlerPanic panics inside a semisortd request handler while
	// it holds a pool workspace, exercising the recover + workspace
	// discard + pool-recycle path; occurrences count requests that
	// acquired a workspace.
	ServerHandlerPanic
	// RadixNode fires at dovetail radix recursion nodes large enough to
	// sample for heavy keys, before the node's distribution pass;
	// occurrences count such nodes. With no OnFire hook the node reports
	// ErrInjected, cancelling the dovetail local sort cooperatively.
	RadixNode
	// ManifestCommit fails a resumable shuffle's manifest commit (the
	// atomic write+rename that seals a partition or marks it emitted)
	// with ErrInjected; occurrences count commits, in partition order —
	// seal commits first, then one emitted-marker commit per partition
	// as its groups finish.
	ManifestCommit

	numPoints
)

var pointNames = [numPoints]string{
	"scatter-overflow",
	"probe-saturation",
	"hash-collision",
	"worker-panic",
	"spill-write",
	"spill-read",
	"phase-boundary",
	"server-accept",
	"server-admission",
	"server-handler-panic",
	"radix-node",
	"manifest-commit",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("fault.Point(%d)", uint8(p))
}

// ErrInjected is the error produced by injected I/O faults.
var ErrInjected = errors.New("fault: injected error")

// PanicValue is the value passed to panic() by an injected WorkerPanic,
// so tests can tell injected panics from real ones.
const PanicValue = "fault: injected worker panic"

type rule struct {
	first, limit int64   // fire occurrences n with first <= n < limit
	prob         float64 // else fire with this probability per occurrence
	action       func()  // run on the triggering goroutine at each firing
}

// An Injector decides, deterministically, which occurrences of each point
// fire. The zero Injector fires nothing; Arm before Enable, not after.
type Injector struct {
	seed   uint64
	rules  [numPoints]*rule
	counts [numPoints]atomic.Int64
	fired  [numPoints]atomic.Int64
}

// New returns an injector whose probabilistic rules derive from seed.
func New(seed uint64) *Injector {
	return &Injector{seed: seed}
}

// Arm fires point p for the count occurrences starting at occurrence
// first (0-based), replacing any previous rule for p.
func (in *Injector) Arm(p Point, first, count int) *Injector {
	in.rules[p] = &rule{first: int64(first), limit: int64(first + count)}
	return in
}

// ArmProb fires point p independently with probability prob per
// occurrence, deterministically in the injector seed.
func (in *Injector) ArmProb(p Point, prob float64) *Injector {
	in.rules[p] = &rule{prob: prob}
	return in
}

// OnFire registers fn to run, on the goroutine that hit the point, each
// time an armed p fires. Arm (or ArmProb) must be called first.
func (in *Injector) OnFire(p Point, fn func()) *Injector {
	if in.rules[p] == nil {
		panic(fmt.Sprintf("fault: OnFire(%v) before Arm", p))
	}
	in.rules[p].action = fn
	return in
}

// Reset zeroes the occurrence and firing counters so the same armed
// injector can drive repeated runs (e.g. benchmark repetitions).
func (in *Injector) Reset() *Injector {
	for i := range in.counts {
		in.counts[i].Store(0)
		in.fired[i].Store(0)
	}
	return in
}

// Count returns how many occurrences of p have been observed.
func (in *Injector) Count(p Point) int64 { return in.counts[p].Load() }

// Fired returns how many occurrences of p fired.
func (in *Injector) Fired(p Point) int64 { return in.fired[p].Load() }

func (in *Injector) should(p Point) bool {
	r := in.rules[p]
	if r == nil {
		return false
	}
	n := in.counts[p].Add(1) - 1
	fire := false
	switch {
	case r.limit > r.first:
		fire = n >= r.first && n < r.limit
	case r.prob > 0:
		// Deterministic per-occurrence coin: splitmix64 of (seed, p, n).
		x := splitmix64(in.seed ^ uint64(p)<<56 ^ uint64(n)*0x9e3779b97f4a7c15)
		fire = float64(x>>11)/float64(1<<53) < r.prob
	}
	if fire {
		in.fired[p].Add(1)
		if r.action != nil {
			r.action()
		}
	}
	return fire
}

// active is the process-wide injector; nil means injection is off and
// every Should call is a single atomic load.
var active atomic.Pointer[Injector]

// Enable installs in as the process-wide injector.
func Enable(in *Injector) { active.Store(in) }

// Disable removes the process-wide injector.
func Disable() { active.Store(nil) }

// Enabled reports whether an injector is installed.
func Enabled() bool { return active.Load() != nil }

// Should reports whether this occurrence of p fires, running the point's
// OnFire hook when it does. Occurrences of unarmed points are not counted.
func Should(p Point) bool {
	in := active.Load()
	if in == nil {
		return false
	}
	return in.should(p)
}

// Writer wraps w so that each Write first checks the SpillWrite point and
// fails with ErrInjected when it fires.
func Writer(w io.Writer) io.Writer { return &faultWriter{w} }

type faultWriter struct{ w io.Writer }

func (f *faultWriter) Write(p []byte) (int, error) {
	if Should(SpillWrite) {
		return 0, ErrInjected
	}
	return f.w.Write(p)
}

// Reader wraps r so that each Read first checks the SpillRead point and
// reports io.EOF when it fires, simulating a truncated spill file.
func Reader(r io.Reader) io.Reader { return &faultReader{r} }

type faultReader struct{ r io.Reader }

func (f *faultReader) Read(p []byte) (int, error) {
	if Should(SpillRead) {
		return 0, io.EOF
	}
	return f.r.Read(p)
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
