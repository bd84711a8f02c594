// The plan is the heart of the pipeline refactor: one struct carrying an
// attempt's resolved parameters and buffer views through the six phase
// stages (sample.go, classify.go, buckets.go, scatter_probing.go /
// scatter_counting.go, pack.go). It lives inside the Workspace so the
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
	"sync"
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
// Phase 4/5 behavior it implies. The probing stage scatters into slot
// arrays with CAS (then compacts and packs); the counting stage writes
// final packed positions directly (local sort in place, pack a no-op).
// Both implementations are zero-size types, so storing them in the
// interface does not allocate.
type scatterStage interface {
	strategy() ScatterStrategy
	// scatter places every record into its bucket (Phase 3). An
	// *overflowError return triggers the Las Vegas retry ladder; any
	// other error aborts the attempt (cancellation).
	scatter(pl *plan) error
	// localSort semisorts each light bucket (Phase 4).
	localSort(pl *plan) error
	// pack compacts the placed records into pl.out (Phase 5) and checks
	// the placement invariant.
	pack(pl *plan) error
}

// stageFor maps a resolved strategy to its stage implementation.
func stageFor(s ScatterStrategy) scatterStage {
	switch s {
	case ScatterCounting:
		return countingStage{}
	case ScatterDovetail:
		return dovetailStage{}
	}
	return probingStage{}
}

// planScatter is the skew-adaptive planner's top-level decision: it
// consumes the Phase 1 estimator — the heavy record mass the classify
// pass accumulated against the estimated total mass — and routes the
// attempt to a Phase 3 placement, recording the choice in Stats. (Under
// a uniform one-shot sample the mass ratio collapses to the historical
// heavy-sample fraction; adaptive densities sharpen it, because heavy
// ranges' masses are estimated at their own rates.) A probing or
// counting route decides the whole input at once (one scatter node);
// on the dovetail route the radix recursion keeps planning per node, and
// its decisions merge into Stats.PlannerRoutes after Phase 4.
func (pl *plan) planScatter() {
	pl.strat = resolveScatter(&pl.cfg, float64(pl.heavyMass.Load()), pl.massTotal, pl.red != nil)
	pl.stats.ScatterStrategy = pl.strat.String()
	if pl.strat != ScatterDovetail {
		pl.stats.PlannerRoutes.ScatterNodes = 1
	}
}

// A plan is the mutable state of one Las Vegas attempt: the resolved
// configuration, the attempt's randomness, every phase's products (as
// views into Workspace-owned buffers), and the attempt's Stats. begin()
// resets it wholesale between attempts; nothing carries over except the
// workspace the views point into.
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
	ctx        context.Context
	attempt    int // scatter attempt index (doubles as the span index)
	logn       float64
	rng        hash.RNG // sampling randomness: stable across boosted retries
	scatterRNG hash.RNG // placement randomness: fresh every attempt
	boost      map[int32]float64

	stats Stats

	// Phase 1 products: the cumulative sorted sample, the estimator the
	// adaptive loop built over it, and the loop's own state (sample.go).
	ns        int // total keys kept across rounds
	sample    []uint64
	model     sizeModel
	massTotal float64 // estimator's record-mass total, Σ hist[j]·rate[j]
	// Adaptive-loop state: per-range histogram/density/selection views
	// plus the in-flight round's geometry.
	smplHist     []int32
	smplDens     []float64
	smplSel      []uint8
	smplCnt      []int32
	smplRounds   int
	smplRound    int
	smplBS       int
	smplNBlk     int
	smplGrain    int
	smplSelCount int

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
	// heavyMass accumulates the estimated records under heavy runs (an
	// integer sum of per-run rounded masses, so it is grain-independent);
	// the planner compares it against massTotal.
	heavyMass atomic.Int64
	// Bucket construction.
	strat          ScatterStrategy
	buckets        []bucket
	table          *hashtable.Table
	emptyKeyBucket int64
	lightBucketOf  []int32
	firstLight     int
	numLightMerged int
	heavySlotEnd   int64
	slotTotal      int64

	// Phase 3 state.
	out   []rec.Record
	slots []rec.Record
	occ   []uint32
	// Probing scatter.
	overflow    atomic.Bool
	heavyPlaced atomic.Int64
	maxCluster  atomic.Int64
	ofMu        sync.Mutex
	ofBuckets   map[int32]int32
	// Counting scatter (shared by the dovetail split, which runs the
	// same two-pass machinery over cbins = firstLight+1 bins instead of
	// one bin per bucket).
	cplan       countingPlan
	cbins       int // histogram width of the counting passes
	hist        []int32
	counts      []int32
	cbase       []int32
	flushes     atomic.Int64
	placedTotal int
	// Dovetail placement (scatter_dovetail.go).
	heavyEnd int                   // records in the packed heavy prefix
	dov      sortint.DovetailStats // radix recursion routing counters

	// Phase 4 size-aware schedule (both paths).
	lsCum    []int64
	lsBounds []int32
	lsRanges int

	// Phase 4–5 state (probing path).
	lightCnt     []int32
	lightOffsets []int32
	packCounts   []int32
	intervals    int
	ilen         int64
	packTotal    int32
	heavyTotal   int
	lightTotal   int32

	// Fused collect-reduce state (reduce.go); red == nil on plain
	// semisorts and every reduce branch below is skipped.
	red          *ReduceSpec
	redSlots     int      // per-worker cell rows (== procs)
	redCells     int      // cells per row (== firstLight, one per heavy bucket)
	redAccs      []uint64 // redSlots × redCells accumulators
	redCellReps  []uint64 // redSlots × redCells representatives
	redUsed      []uint8  // redSlots × redCells used flags, cleared per attempt
	redStage     []rec.Record
	redStageReps []uint64
	redDistinct  []int32 // per merged light bucket: groups after reduceSeg
	redOff       []int32 // exclusive scan of redDistinct
	redHeavyRecs int     // counting path: records in heavy buckets (pass 1)
	redBadHeavy  atomic.Int64
	reps         []uint64 // final per-group representatives (view of ws.redReps)
}

// begin resets the plan for one attempt. Every field is (re)assigned so
// no state can leak from a previous attempt or call.
func (pl *plan) begin(ws *Workspace, a, dst []rec.Record, c *Config, sampleAttempt, attempt int, boost map[int32]float64, tr *tracer, red *ReduceSpec) {
	pl.cfg = *c
	pl.ws = ws
	pl.tr = *tr
	pl.a = a
	pl.dst = dst
	pl.n = len(a)
	pl.procs = c.Procs
	pl.ctx = c.Context
	pl.attempt = attempt
	pl.logn = math.Log(math.Max(float64(pl.n), 2))
	pl.rng = hash.NewRNG(c.Seed + uint64(sampleAttempt)*0x9e3779b97f4a7c15 + 1)
	pl.scatterRNG = hash.NewRNG(c.Seed ^ (uint64(attempt)+1)*0xd1342543de82ef95)
	pl.boost = boost
	pl.stats = Stats{N: pl.n}

	pl.ns = 0
	pl.sample = nil
	pl.model = sizeModel{}
	pl.massTotal = 0
	pl.smplHist, pl.smplDens, pl.smplSel, pl.smplCnt = nil, nil, nil, nil
	pl.smplRounds, pl.smplRound, pl.smplBS = 0, 0, 0
	pl.smplNBlk, pl.smplGrain, pl.smplSelCount = 0, 0, 0
	pl.bucketsT0 = time.Time{}
	pl.numLight, pl.shift = 0, 0
	pl.runStarts, pl.runCounts, pl.rsGrain, pl.numRuns = nil, nil, 0, 0
	pl.runGrain, pl.runBlocks = 0, 0
	pl.blockHeavy, pl.heavyRuns, pl.numHeavy = nil, nil, 0
	pl.lightCounts = nil
	pl.heavyMass.Store(0)
	pl.strat = ScatterAuto
	pl.buckets, pl.table = nil, nil
	pl.emptyKeyBucket = -1
	pl.lightBucketOf = nil
	pl.firstLight, pl.numLightMerged = 0, 0
	pl.heavySlotEnd, pl.slotTotal = 0, 0

	pl.out, pl.slots, pl.occ = nil, nil, nil
	pl.overflow.Store(false)
	pl.heavyPlaced.Store(0)
	pl.maxCluster.Store(0)
	pl.ofBuckets = nil
	pl.cplan = countingPlan{}
	pl.cbins = 0
	pl.hist, pl.counts, pl.cbase = nil, nil, nil
	pl.flushes.Store(0)
	pl.placedTotal = 0
	pl.heavyEnd = 0
	pl.dov = sortint.DovetailStats{}

	pl.lsCum, pl.lsBounds, pl.lsRanges = nil, nil, 0
	pl.lightCnt, pl.lightOffsets, pl.packCounts = nil, nil, nil
	pl.intervals, pl.ilen, pl.packTotal = 0, 0, 0
	pl.heavyTotal, pl.lightTotal = 0, 0

	pl.red = red
	pl.redSlots, pl.redCells = 0, 0
	pl.redAccs, pl.redCellReps, pl.redUsed = nil, nil, nil
	pl.redStage, pl.redStageReps = nil, nil
	pl.redDistinct, pl.redOff = nil, nil
	pl.redHeavyRecs = 0
	pl.redBadHeavy.Store(0)
	pl.reps = nil
}

// clearRefs drops every reference the plan holds (input, output, buffer
// views, config with its Observer/Context) so a retained Workspace never
// pins caller memory between calls. Scalar fields are left as-is; begin()
// reassigns them.
func (pl *plan) clearRefs() {
	pl.cfg = Config{}
	pl.ws = nil
	pl.tr = tracer{}
	pl.a, pl.dst, pl.out = nil, nil, nil
	pl.ctx = nil
	pl.boost = nil
	pl.sample = nil
	pl.model = sizeModel{} // drops the rates/thr workspace views
	pl.smplHist, pl.smplDens, pl.smplSel, pl.smplCnt = nil, nil, nil, nil
	pl.runStarts, pl.runCounts = nil, nil
	pl.blockHeavy, pl.heavyRuns, pl.lightCounts = nil, nil, nil
	pl.buckets, pl.table, pl.lightBucketOf = nil, nil, nil
	pl.slots, pl.occ = nil, nil
	pl.ofBuckets = nil
	pl.hist, pl.counts, pl.cbase = nil, nil, nil
	pl.lsCum, pl.lsBounds = nil, nil
	pl.lightCnt, pl.lightOffsets, pl.packCounts = nil, nil, nil
	pl.red = nil
	pl.redAccs, pl.redCellReps, pl.redUsed = nil, nil, nil
	pl.redStage, pl.redStageReps = nil, nil
	pl.redDistinct, pl.redOff = nil, nil
	pl.reps = nil
	pl.stats = Stats{}
}

// semisortOnce runs one Las Vegas attempt through the six pipeline
// stages. The attempt's Stats accumulate in pl.stats; the output is
// pl.out on success.
func semisortOnce(pl *plan) ([]rec.Record, error) {
	if pl.n == 0 {
		return []rec.Record{}, nil
	}
	if err := pl.samplePhase(); err != nil {
		return nil, err
	}
	if err := pl.classifyPhase(); err != nil {
		return nil, err
	}
	if err := pl.allocatePhase(); err != nil {
		return nil, err
	}
	st := stageFor(pl.strat)
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
// surfaces as an *overflowError for the Las Vegas ladder; any other error
// is a cancellation.
func (pl *plan) scatterPhase(st scatterStage) error {
	if err := phaseGate(pl.ctx, "scatter"); err != nil {
		return err
	}
	pl.tr.phaseStart(pl.attempt, obsv.PhaseScatter)
	t0 := time.Now()
	err := st.scatter(pl)
	if err == nil {
		pl.stats.Phases.Scatter = time.Since(t0)
		pl.tr.scatterSpan(pl.attempt, t0, obsv.OutcomeOK, pl.strat, pl.stats.ScatterFlushes)
		return nil
	}
	if errors.Is(err, ErrOverflow) {
		pl.stats.Phases.Scatter = time.Since(t0)
		pl.tr.scatterSpan(pl.attempt, t0, obsv.OutcomeOverflow, pl.strat, 0)
		return err
	}
	pl.tr.scatterSpan(pl.attempt, t0, obsv.OutcomeCanceled, pl.strat, 0)
	return fmt.Errorf("semisort: canceled at scatter: %w", err)
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

// bucketOf resolves a record to its bucket id and whether it took the
// heavy path. Hot: called once (counting: twice) per record in Phase 3.
//
// lightBucketOf doubles as a dense heavy directory: ranges containing no
// heavy key store their light bucket id directly, so the common case —
// light record, unflagged range — resolves with the one array load Phase
// 3 needed anyway, no hash and no table probe. Ranges that do contain a
// heavy key (flagged by allocatePhase with the id's complement) fall to
// the slow path, which consults the heavy table and decodes the
// complement on a miss.
func (pl *plan) bucketOf(r rec.Record) (int64, bool) {
	if v := pl.lightBucketOf[r.Key>>pl.shift]; v >= 0 {
		return int64(v), false
	}
	return pl.bucketOfSlow(r.Key)
}

// bucketOfSlow resolves a key whose hash range is flagged as containing a
// heavy key. Split out so bucketOf's fast path inlines into the scatter
// loops.
func (pl *plan) bucketOfSlow(k uint64) (int64, bool) {
	if k == hashtable.Empty {
		if pl.emptyKeyBucket >= 0 {
			// The table's reserved key gets a dedicated heavy bucket.
			return pl.emptyKeyBucket, true
		}
	} else if v, ok := pl.table.Lookup(k); ok {
		return int64(v), true
	}
	return int64(^pl.lightBucketOf[k>>pl.shift]), false
}

// probeBatch is the record blocking factor of the batched classifiers:
// matches hashtable's lookup block so one bucketOfBatch resolves in a
// single table-probe burst.
const probeBatch = 16

// bucketOfBatch resolves records a[base:base+m] (m ≤ probeBatch) into
// bids/heavy, exactly as m bucketOf calls would. Records in unflagged
// ranges resolve inline; the rest are gathered and resolved through one
// hashtable.LookupBatch call, so their dependent probe loads overlap in
// the memory system instead of serializing — the point of blocking the
// scatter loops. All scratch is fixed-size and stack-allocated.
func (pl *plan) bucketOfBatch(base, m int, bids *[probeBatch]int64, heavy *[probeBatch]bool) {
	var keys [probeBatch]uint64
	var vals [probeBatch]uint64
	var ok [probeBatch]bool
	var slow [probeBatch]uint8
	shift := pl.shift
	nslow := 0
	for i := 0; i < m; i++ {
		k := pl.a[base+i].Key
		if v := pl.lightBucketOf[k>>shift]; v >= 0 {
			bids[i], heavy[i] = int64(v), false
		} else {
			keys[nslow] = k
			slow[nslow] = uint8(i)
			nslow++
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

// ensureOut binds pl.out for the attempt: the caller-provided destination
// when it is large enough and does not alias the input (Shared callers
// could otherwise feed a workspace's previous output back in as input and
// have the scatter overwrite what it is reading), a fresh allocation
// otherwise.
func (pl *plan) ensureOut() []rec.Record {
	if dst := pl.dst; cap(dst) >= pl.n && !sliceOverlaps(dst, pl.a) {
		pl.out = dst[:pl.n]
	} else {
		pl.out = make([]rec.Record, pl.n)
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

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
