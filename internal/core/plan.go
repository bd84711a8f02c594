// The plan is the heart of the pipeline refactor: one struct carrying an
// attempt's resolved parameters and buffer views through the six phase
// stages (sample.go, classify.go, buckets.go, scatter_probing.go /
// scatter_counting.go, pack.go), or through the dovetail route's single
// kernel call (scatter_dovetail.go). It lives inside the Workspace so the
// steady state allocates neither the plan nor its buffers, and every
// phase body is a method on it, so parallel-for bodies can be passed as
// method expressions (compile-time constants) instead of closures — the
// difference between ~0 and ~10 allocations per call at Procs == 1.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/hash"
	"repro/internal/hashtable"
	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/rec"
	"repro/internal/sortint"
)

// A scatterStage is one Phase 3 placement algorithm together with the
// Phase 2 sizing and Phase 4/5 behavior it implies. Each serves one call
// kind. The probing stage (a plain semisort that asks for it) sizes f(s)
// slot arrays, scatters into them with CAS, then compacts, sorts and
// packs. The counting stage (every fused reduce) places at exact offsets,
// folding heavy records into cells, reduces the light buckets in
// arenas and packs the groups. The implementations are zero-size types,
// so storing them in the interface does not allocate.
type scatterStage interface {
	// allocate sizes the stage's scratch once the bucket ids are known
	// (the end of Phase 2). A wrapped errSlotCap return means the
	// scratch would exceed Config.MaxSlotBytes.
	allocate(pl *plan) error
	// scatter places every record into its bucket (Phase 3). An
	// ErrOverflow return (probing only) restarts the call (the Las
	// Vegas rule); a wrapped errSlotCap (counting only, once pass 1 knows the
	// light count) degrades to the fallback; any other error aborts the
	// attempt (cancellation).
	scatter(pl *plan) error
	// localSort semisorts (or, on a fused reduce, folds) each light
	// bucket (Phase 4).
	localSort(pl *plan) error
	// pack compacts the placed records into pl.out (Phase 5) and checks
	// the placement invariant.
	pack(pl *plan) error
}

// stageFor maps a sampled route to its stage implementation.
func stageFor(s ScatterStrategy) scatterStage {
	if s == ScatterCounting {
		return countingStage{}
	}
	return probingStage{}
}

// planScatter is the planner's top-level decision, made before Phase 1
// from the call alone (resolveScatter), and recorded in Stats. The probing
// and counting routes run the sampled pipeline over the whole input (one
// scatter node); the dovetail route hands the input to the radix kernel,
// which keeps planning per node, and its decisions land in
// Stats.PlannerRoutes after the kernel returns.
func (pl *plan) planScatter() {
	pl.strat = resolveScatter(&pl.cfg, pl.red != nil)
	pl.stats.ScatterStrategy = pl.strat.String()
	if pl.strat != ScatterDovetail {
		pl.stats.PlannerRoutes.ScatterNodes = 1
	}
}

// A plan is the mutable state of one attempt: the resolved
// configuration, the attempt's randomness, every phase's products (as
// views into Workspace-owned buffers), and the attempt's Stats. The
// counting and dovetail routes run one attempt per call; only the
// probing route's Las Vegas restarts run several. begin() resets the plan
// wholesale between attempts; nothing carries over except the workspace
// the views point into.
type plan struct {
	// Call parameters.
	cfg   Config
	ws    *Workspace
	tr    tracer // by value: a pointer to a stack local would force it to the heap
	a     []rec.Record
	dst   []rec.Record // caller-provided output buffer; nil means allocate
	n     int
	procs int
	// ctx mirrors cfg.Context (hot-path convenience).
	ctx     context.Context
	attempt int // scatter attempt index (doubles as the span index)
	logn    float64
	rng     hash.RNG // sampling randomness: fresh every attempt

	stats Stats

	// Phase 1 product: the sorted sample (sample.go).
	ns     int // keys drawn: one per SampleRate-record block
	sample []uint64

	// Phase 2 products.
	bucketsT0 time.Time // classify+allocate share the Buckets phase clock
	numLight  int
	shift     uint
	// Run-start extraction (the in-workspace PackIndex).
	runStarts []int32
	runCounts []int32
	rsGrain   int
	numRuns   int
	// Classification.
	runGrain    int
	runBlocks   int
	blockHeavy  []int32
	heavyRuns   []heavyRun
	numHeavy    int
	lightCounts []int32
	// Bucket construction: ids 0..firstLight-1 are heavy, the next
	// numLightMerged light.
	strat          ScatterStrategy
	table          *hashtable.Table
	emptyKeyBucket int64
	lightBucketOf  []int32
	heavyDir       []dirEntry // view of ws.heavyDir (buckets.go)
	dirShift       uint       // 64 − log2 len(heavyDir)
	firstLight     int
	numLightMerged int

	// Probing route: slot sizing, placement and packing
	// (scatter_probing.go).
	probeState

	// Phase 3 state.
	out []rec.Record
	// Counting scatter: pass blocking, histograms and cursors.
	cgrain, cblocks int
	cbins           int // histogram width of the counting passes
	hist            []int32
	counts          []int32
	cbase           []int32
	bidCol          []uint32 // pass 1's bucket id per record, read by pass 2
	placedTotal     int
	// Dovetail route (scatter_dovetail.go): the kernel's routing counters.
	dov sortint.DovetailStats

	// Phase 4 size-aware schedule (both sampled routes).
	lsCum    []int64
	lsBounds []int32
	lsRanges int

	// Fused collect-reduce state (reduce.go); red == nil on plain
	// semisorts, which never reach the counting stage.
	red          *ReduceSpec
	redSlots     int      // per-worker cell rows (== procs)
	redCells     int      // cells per row (== firstLight, one per heavy bucket)
	redAccs      []uint64 // redSlots × redCells accumulators
	redCellReps  []uint64 // redSlots × redCells representatives
	redRepBlk    []int32  // redSlots × redCells rep block+1; 0 = unused
	redStage     []rec.Record
	redStageReps []uint64
	redDistinct  []int32 // per merged light bucket: groups after reduceSeg
	redOff       []int32 // exclusive scan of redDistinct
	redBadHeavy  atomic.Int64
	reps         []uint64 // final per-group representatives (view of ws.redReps)
}

// begin resets the plan for one attempt. The whole plan is replaced, so
// no state can leak from a previous attempt or call.
func (pl *plan) begin(ws *Workspace, a, dst []rec.Record, c *Config, attempt int, tr *tracer, red *ReduceSpec) {
	n := len(a)
	*pl = plan{
		cfg: *c, ws: ws, tr: *tr, a: a, dst: dst, n: n,
		procs: c.Procs, ctx: c.Context, attempt: attempt,
		logn: math.Log(math.Max(float64(n), 2)),
		rng:  hash.NewRNG(c.Seed + uint64(attempt)*0x9e3779b97f4a7c15 + 1),
		probeState: probeState{
			scatterRNG: hash.NewRNG(c.Seed ^ (uint64(attempt)+1)*0xd1342543de82ef95),
		},
		stats:          Stats{N: n},
		emptyKeyBucket: -1,
		red:            red,
	}
}

// clearRefs drops every reference the plan holds (input, output, buffer
// views, config with its Observer/Context) so a retained Workspace never
// pins caller memory between calls.
func (pl *plan) clearRefs() { *pl = plan{} }

// semisortOnce runs one attempt: the dovetail route's single kernel call,
// or the sampled pipeline's six stages. The attempt's Stats accumulate in
// pl.stats; the output is pl.out on success.
func semisortOnce(pl *plan) ([]rec.Record, error) {
	if pl.n == 0 {
		return []rec.Record{}, nil
	}
	pl.planScatter()
	if pl.strat == ScatterDovetail {
		return pl.dovetailRoute()
	}
	if err := pl.samplePhase(); err != nil {
		return nil, err
	}
	if err := pl.classifyPhase(); err != nil {
		return nil, err
	}
	st := stageFor(pl.strat)
	if err := pl.allocatePhase(st); err != nil {
		return nil, err
	}
	if err := pl.scatterPhase(st); err != nil {
		return nil, err
	}
	if err := pl.localSortPhase(st); err != nil {
		return nil, err
	}
	if err := pl.packPhase(st); err != nil {
		return nil, err
	}
	return pl.out, nil
}

// scatterPhase runs Phase 3 through the stage. Overflow (probing only)
// surfaces as ErrOverflow for the Las Vegas restart, and the counting
// route's scratch cap as errSlotCap for the fallback; any other error is
// a cancellation.
func (pl *plan) scatterPhase(st scatterStage) error {
	if err := phaseGate(pl.ctx, "scatter"); err != nil {
		return err
	}
	pl.tr.phaseStart(pl.attempt, obsv.PhaseScatter)
	t0 := time.Now()
	err := st.scatter(pl)
	if err == nil {
		pl.stats.Phases.Scatter = time.Since(t0)
		pl.tr.scatterSpan(pl.attempt, t0, obsv.OutcomeOK, pl.strat)
		return nil
	}
	outcome := obsv.OutcomeOverflow
	switch {
	case errors.Is(err, ErrOverflow):
	case errors.Is(err, errSlotCap):
		outcome = obsv.OutcomeCap
	default:
		pl.tr.scatterSpan(pl.attempt, t0, obsv.OutcomeCanceled, pl.strat)
		return fmt.Errorf("semisort: canceled at scatter: %w", err)
	}
	pl.stats.Phases.Scatter = time.Since(t0)
	pl.tr.scatterSpan(pl.attempt, t0, outcome, pl.strat)
	return err
}

// parFor runs f over [0, n) with cooperative cancellation, dispatching
// the single-worker uncancellable case through parallel.SerialFor so a
// method-expression f costs no allocation (ForCtx's body would escape
// into its worker goroutines).
func (pl *plan) parFor(n, grain int, f func(*plan, int, int)) error {
	if pl.ctx == nil && pl.procs == 1 {
		parallel.SerialFor(n, func(lo, hi int) { f(pl, lo, hi) })
		return nil
	}
	return parallel.ForCtx(pl.ctx, pl.procs, n, grain, func(lo, hi int) { f(pl, lo, hi) })
}

// parForEach is parFor with a per-index body.
func (pl *plan) parForEach(n, grain int, f func(*plan, int)) error {
	if pl.ctx == nil && pl.procs == 1 {
		parallel.SerialFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				f(pl, i)
			}
		})
		return nil
	}
	return parallel.ForEachCtx(pl.ctx, pl.procs, n, grain, func(i int) { f(pl, i) })
}

// parForNoCtx runs f over [0, n) without cancellation, for phases that
// only check the surrounding gates (classification, cursor conversion,
// packing — matching the monolithic pipeline's parallel.For call sites).
func (pl *plan) parForNoCtx(n, grain int, f func(*plan, int, int)) {
	if pl.procs == 1 {
		parallel.SerialFor(n, func(lo, hi int) { f(pl, lo, hi) })
		return
	}
	parallel.For(pl.procs, n, grain, func(lo, hi int) { f(pl, lo, hi) })
}

// parForEachNoCtx is parForNoCtx with a per-index body.
func (pl *plan) parForEachNoCtx(n, grain int, f func(*plan, int)) {
	if pl.procs == 1 {
		parallel.SerialFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				f(pl, i)
			}
		})
		return
	}
	parallel.ForEach(pl.procs, n, grain, func(i int) { f(pl, i) })
}

// probeBatch is the record blocking factor of the batched classifiers:
// matches hashtable's lookup block so one bucketOfBatch resolves its
// shared-slot keys in a single table-probe burst.
const probeBatch = 16

// bucketOfBatch is the classifier: it resolves records a[base:base+m]
// (m ≤ probeBatch) to their bucket ids (bids) and whether each took the
// heavy path (heavy). Almost every record costs one cache-resident load:
//  1. lightBucketOf doubles as a range filter: ranges containing no
//     heavy key store their light bucket id directly, so a light record
//     in an unflagged range resolves with one array load, no hash and no
//     probe.
//  2. A flagged range (allocatePhase stores the id's complement) reads
//     the heavy directory: a slot holding exactly this key names its
//     heavy bucket with one compare.
//  3. Only a shared slot — two or more heavy keys map there — consults
//     emptyKeyBucket and the heavy table. Those keys are gathered and
//     resolved through one hashtable.LookupBatch call, so their dependent
//     probe loads overlap in the memory system instead of serializing.
//  4. Anything else is light, and the range's complement decodes its id.
//
// All scratch is fixed-size and stack-allocated.
func (pl *plan) bucketOfBatch(base, m int, bids *[probeBatch]int64, heavy *[probeBatch]bool) {
	var keys [probeBatch]uint64
	var vals [probeBatch]uint64
	var ok [probeBatch]bool
	var slow [probeBatch]uint8
	shift, dshift, dir := pl.shift, pl.dirShift, pl.heavyDir
	nslow := 0
	for i := 0; i < m; i++ {
		k := pl.a[base+i].Key
		v := pl.lightBucketOf[k>>shift]
		if v >= 0 {
			bids[i], heavy[i] = int64(v), false
			continue
		}
		switch e := dir[(k*dirMul)>>dshift]; {
		case e.key == k && e.hid >= 0:
			bids[i], heavy[i] = int64(e.hid), true
		case e.hid == dirShared:
			keys[nslow] = k
			slow[nslow] = uint8(i)
			nslow++
		default:
			bids[i], heavy[i] = int64(^v), false
		}
	}
	if nslow == 0 {
		return
	}
	pl.table.LookupBatch(keys[:nslow], vals[:nslow], ok[:nslow])
	for j := 0; j < nslow; j++ {
		i := slow[j]
		k := keys[j]
		switch {
		case k == hashtable.Empty && pl.emptyKeyBucket >= 0:
			bids[i], heavy[i] = pl.emptyKeyBucket, true
		case ok[j]:
			bids[i], heavy[i] = int64(vals[j]), true
		default:
			bids[i], heavy[i] = int64(^pl.lightBucketOf[k>>shift]), false
		}
	}
}

// ensureOut binds an n-record pl.out for the attempt (see ensureOutN).
func (pl *plan) ensureOut() []rec.Record {
	return pl.ensureOutN(pl.n)
}

// ensureOutN binds an m-record pl.out: the caller-provided destination
// when its capacity is at least m and it does not alias the input (Shared
// callers could otherwise feed a workspace's previous output back in as
// input and have the scatter overwrite what it is reading), a fresh
// allocation otherwise: exactly m when there is no destination, m plus
// headroom when a destination was outgrown (rec.RegrowCap). The fused pack
// asks for its group count, not n.
func (pl *plan) ensureOutN(m int) []rec.Record {
	if dst := pl.dst; cap(dst) >= m && !sliceOverlaps(dst, pl.a) {
		pl.out = dst[:m]
	} else {
		old := cap(dst)
		if old >= m {
			old = 0 // aliased, not outgrown
		}
		pl.out = make([]rec.Record, m, rec.RegrowCap(old, m))
	}
	return pl.out
}

// sliceOverlaps reports whether two slices share the final element of
// their backing arrays — the practical aliasing case (two views of one
// allocation). Partial overlap of distinct allocations cannot happen in
// Go without unsafe.
func sliceOverlaps(x, y []rec.Record) bool {
	if cap(x) == 0 || cap(y) == 0 {
		return false
	}
	return &(x[:cap(x)])[cap(x)-1] == &(y[:cap(y)])[cap(y)-1]
}
