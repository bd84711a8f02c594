package sortint

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/rec"
)

// Dovetail semisort: a top-down MSD radix recursion that, at every node
// large enough to sample, detects heavy duplicate keys and "dovetails"
// them into the distribution pass — records with a heavy key are placed
// once, contiguously, at the front of the node's range, and no later pass
// ever touches them again. Light records continue through the ordinary
// digit-at-a-time recursion. The output is a SEMISORT: every key's
// records are contiguous and in input order, but heavy groups sit ahead
// of the digit-ordered light groups of their node, so the array is not
// sorted by key. This is the DovetailSort design of "Parallel Integer
// Sort: Theory and Practice" (arXiv 2401.00710) restricted to what a
// semisort needs.
//
// Digit widths follow that paper's O(n + 2^γ) cost per level: every node
// picks its width from dtDigitBits(node size, unconsumed key bits), one
// pure function shared by the serial and the parallel recursion, so the
// arrangement does not depend on the worker count. A node takes the
// fewest passes that reach leaves of about four records (trivial
// insertion sorts) under a width cap, with the bits spread evenly over
// those passes: a node below seqCutoff usually finishes in one pass of
// about log₂(n/4) bits, and larger nodes take digits of 7 to 11 bits.
// Heavy-extracting (dovetail) passes keep dtHeavyBits-bit digits.
const (
	// Nodes at or above this size sample for heavy keys (and hit the
	// cancellation/fault gate); below it plain radix recursion finishes
	// the node — sampling 64 keys from a tiny node is all overhead.
	dtSampleCutoff = 2048
	// Keys sampled per node, at fixed strides, so the decision is a pure
	// function of the node's contents (proc-count independent).
	dtSampleSize = 64
	// A sampled key is heavy when it appears at least this many times in
	// the sample (>= ~6% of the node).
	dtHeavyHits = 4
	// At most this many heavy keys are extracted per node; the per-pass
	// digit mask packs their indices into a uint16.
	dtMaxHeavy = 16
	// Digit width of a dovetail pass: its digit -> heavy-index mask table
	// has one uint16 per digit value.
	dtHeavyBits = radixBits
	// Radix leaves average about 2^dtLeafLog records.
	dtLeafLog = 2
	// Width caps of a radix digit: dtWideBits on nodes of at least
	// seqCutoff records, whose scatters stream from memory into 2^w bins
	// (every parallel pass), and dtMaxBits on the smaller, cache-resident
	// nodes.
	dtWideBits = 11
	dtMaxBits  = 12
	// dtStackLen bounds the count-table entries one root-to-leaf path
	// holds at once: a radix frame takes 2^w entries for w <= dtMaxBits
	// digit bits, a dovetail frame at most dtMaxHeavy + 2^w for w <=
	// dtHeavyBits, and the widths along a path sum to at most 64. Entries
	// per bit grow with the width, so the worst path is five 12-bit frames
	// plus a dovetail frame over the last 4 bits.
	dtStackLen = (64/dtMaxBits)<<dtMaxBits + dtMaxHeavy + 1<<(64%dtMaxBits)
	// Minimum records per block of a parallel pass: each block owns a
	// histogram of up to 2^dtWideBits bins, so blocks must be much larger.
	dtParGrain = 1 << 14
)

// dtDigitBits returns the digit width of a radix pass over a node of n
// > smallCutoff records with rem >= 1 unconsumed key bits: the node needs
// l = floor(log₂ n) - dtLeafLog bits to reach its leaves, which take k =
// ceil(l / cap) passes of ceil(l / k) bits. Both recursions call it,
// which is what keeps their outputs byte-identical.
func dtDigitBits(n, rem int) int {
	l := bits.Len(uint(n)) - 1 - dtLeafLog
	wcap := dtMaxBits
	if n >= seqCutoff {
		wcap = dtWideBits
	}
	k := (l + wcap - 1) / wcap
	return min((l+k-1)/k, rem)
}

// DovetailStats counts the routing decisions of one dovetail semisort.
// Only nodes large enough to sample (>= dtSampleCutoff records) are
// counted; smaller nodes finish on plain radix/insertion leaves.
type DovetailStats struct {
	// RadixNodes is the number of sampled nodes whose sample showed no
	// heavy key: the node ran a plain radix pass.
	RadixNodes int64
	// DovetailNodes is the number of sampled nodes that extracted at
	// least one heavy key into the distribution pass.
	DovetailNodes int64
	// HeavyKeysPlaced is the total number of distinct heavy keys placed
	// (summed over dovetail nodes).
	HeavyKeysPlaced int64
	// HeavyRecords is the total number of records those keys held: the
	// records the dovetail nodes placed in their heavy bins.
	HeavyRecords int64
}

// Add accumulates other into s.
func (s *DovetailStats) Add(other DovetailStats) {
	s.RadixNodes += other.RadixNodes
	s.DovetailNodes += other.DovetailNodes
	s.HeavyKeysPlaced += other.HeavyKeysPlaced
	s.HeavyRecords += other.HeavyRecords
}

// DovetailTables is caller-owned scratch for a dovetail semisort: the
// per-block histograms of the parallel passes, one count stack per
// concurrent serial recursion (plus one for the bin tables of the
// parallel nodes), and SemisortFrom's child scratch. A zero value is
// ready to use; it grows on first use and is then reused, so warm runs
// keep their tables off both the heap and the goroutine stack. Not safe
// for concurrent semisorts.
type DovetailTables struct {
	hist   []int32  // parallel pass: nblocks × bins counts, then offsets
	stacks []int32  // count stacks of dtStackLen entries each
	free   chan int // free-list of worker stack indices (parallel runs)
	// scratch is SemisortFrom's child scratch, sized to the children of
	// the top pass (childScratch), not to the input.
	scratch []rec.Record
}

// RetainedBytes reports the memory the tables pin.
func (t *DovetailTables) RetainedBytes() int64 {
	return int64(cap(t.hist)+cap(t.stacks))*4 + int64(cap(t.scratch))*rec.RecordSize
}

// Release drops the tables; the next semisort regrows what it needs.
func (t *DovetailTables) Release() { *t = DovetailTables{} }

// ReleaseScratch drops only the child scratch, the tables' one buffer
// that scales with the input.
func (t *DovetailTables) ReleaseScratch() { t.scratch = nil }

// childScratch returns the child scratch sliced to n records, growing it
// to rec.RegrowCap when it is shorter, so that a largest child that
// wanders just above its warm high-water mark reallocates once rather
// than at every new maximum. maxBytes > 0 caps the scratch: n records
// past it are an error wrapping ErrScratchCap, and the headroom never
// crosses it.
func (t *DovetailTables) childScratch(n int, maxBytes int64) ([]rec.Record, error) {
	need := int64(n) * rec.RecordSize
	if maxBytes > 0 && need > maxBytes {
		return nil, fmt.Errorf("%w: children need %d bytes, cap %d", ErrScratchCap, need, maxBytes)
	}
	if c := cap(t.scratch); c < n {
		size := rec.RegrowCap(c, n)
		if maxBytes > 0 {
			size = min(size, int(maxBytes/rec.RecordSize))
		}
		t.scratch = make([]rec.Record, size)
	}
	return t.scratch[:n], nil
}

// ensure sizes the tables for nstacks count stacks and refills the
// free-list with stack indices [0, workers).
func (t *DovetailTables) ensure(nstacks, workers int) {
	if need := nstacks * dtStackLen; len(t.stacks) < need {
		t.stacks = make([]int32, need)
	}
	if workers == 0 {
		return
	}
	if t.free == nil || cap(t.free) < workers {
		t.free = make(chan int, workers)
	}
	for len(t.free) > 0 {
		<-t.free
	}
	for s := 0; s < workers; s++ {
		t.free <- s
	}
}

// stack returns count stack i.
func (t *DovetailTables) stack(i int) []int32 {
	return t.stacks[i*dtStackLen : (i+1)*dtStackLen : (i+1)*dtStackLen]
}

// dtPool lends tables to DovetailSemisortWith, whose callers own no
// DovetailTables; callers that keep a workspace call Semisort instead.
var dtPool = sync.Pool{New: func() any { return new(DovetailTables) }}

// dtState carries the per-run shared state of a dovetail semisort:
// routing counters, the cooperative-cancellation flag, and the first
// error observed. Workers only ever set canceled and append counters, so
// a stopped run leaves a (possibly ungrouped) permutation behind.
type dtState struct {
	procs    int
	ctx      context.Context
	tab      *DovetailTables
	capBytes int64 // SemisortFrom's cap on the child scratch (0: none)
	radix    atomic.Int64
	dovetail atomic.Int64
	heavy    atomic.Int64
	heavyRec atomic.Int64
	canceled atomic.Bool
	// firstErr is written only by the worker that wins the canceled CAS
	// in fail, and read only after all workers have joined — no mutex,
	// which would leak the whole state struct to the heap via Lock's
	// receiver and tax the zero-allocation serial path.
	firstErr error
}

func (st *dtState) fail(err error) {
	if st.canceled.CompareAndSwap(false, true) {
		st.firstErr = err
	}
}

// gate runs the cooperative checks at a sampled node and at the root of
// every subtree a parallel pass hands out: an already canceled run, the
// RadixNode fault point, and context cancellation. It reports whether
// the node must stop. A fired fault point whose OnFire hook canceled the
// context reports the context error; an un-hooked firing reports
// fault.ErrInjected.
func (st *dtState) gate() bool {
	if st.canceled.Load() {
		return true
	}
	injected := fault.Should(fault.RadixNode)
	if st.ctx != nil {
		if err := st.ctx.Err(); err != nil {
			st.fail(err)
			return true
		}
	}
	if injected {
		st.fail(fmt.Errorf("sortint: dovetail node: %w", fault.ErrInjected))
		return true
	}
	return false
}

// DovetailSemisort is DovetailSemisortWith with a freshly allocated
// scratch buffer and no cancellation.
func DovetailSemisort(procs int, a []rec.Record, stats *DovetailStats) error {
	if len(a) <= 1 {
		return nil
	}
	return DovetailSemisortWith(context.Background(), procs, a, make([]rec.Record, len(a)), stats)
}

// DovetailSemisortWith is (*DovetailTables).Semisort with count tables
// borrowed from a package pool, for callers that keep no tables of their
// own. Warm runs allocate nothing at procs == 1.
func DovetailSemisortWith(ctx context.Context, procs int, a, scratch []rec.Record, stats *DovetailStats) error {
	if len(a) <= 1 {
		return nil
	}
	t := dtPool.Get().(*DovetailTables)
	err := t.Semisort(ctx, procs, a, scratch, stats)
	dtPool.Put(t)
	return err
}

// Semisort groups a in place: on return (with a nil error) every key's
// records are contiguous and in input order. The output is NOT sorted by
// key — heavy keys detected by per-node sampling are placed at the front
// of their node, ahead of the digit-ordered light keys. The arrangement
// is a pure function of the input (proc-count independent).
//
// scratch must hold at least len(a) records; a shorter buffer is a
// contract error wrapping ErrShortScratch, with a untouched. ctx may be
// nil; a non-nil ctx is polled at every sampled node and at the root of
// every subtree a parallel pass hands out, and a canceled run stops
// cooperatively, leaving a permutation of the input with no grouping
// guarantee, and returns the context error. stats, when non-nil,
// accumulates routing counters.
//
// A warm run allocates nothing at procs == 1; at procs > 1 it allocates
// a bounded number of goroutine closures per parallel node (nodes of at
// least 2^15 records), independent of the input size for light inputs.
func (t *DovetailTables) Semisort(ctx context.Context, procs int, a, scratch []rec.Record, stats *DovetailStats) error {
	if len(a) <= 1 {
		return nil
	}
	if len(scratch) < len(a) {
		return fmt.Errorf("%w: have %d records, need %d", ErrShortScratch, len(scratch), len(a))
	}
	procs = parallel.Procs(procs)
	if procs == 1 || len(a) < seqCutoff {
		// Closure-free serial recursion: body closures handed to the
		// parallel runtime escape to the heap, so a warm single-worker run
		// must not touch them.
		t.ensure(1, 0)
		var st dtState
		st.procs = 1
		st.ctx = ctx
		dtSerial(&st, a, scratch[:len(a)], 64, t.stack(0))
		return dtFinish(&st, stats)
	}
	// Stacks [0, procs) serve the workers' serial subtrees; stack procs
	// holds the bin tables of the parallel nodes.
	t.ensure(procs+1, procs)
	st := &dtState{procs: procs, ctx: ctx, tab: t}
	dtParallel(st, a, scratch[:len(a)], 64, t.stack(procs), false)
	return dtFinish(st, stats)
}

// SemisortFrom is Semisort out of place: it groups src into dst. The top
// radix pass reads src straight into dst, where its heavy groups land in
// their final place, and every light child then groups in place inside
// dst through child scratch the tables own: one slice per worker for
// the serial subtrees, sized to the largest child below the parallel
// cutoff, and one shared region for the larger children, which recurse
// one at a time. src is never written and no copy of it is made; the
// result is record for record what copying src into dst and calling
// Semisort on dst would leave. dst must hold at least len(src) records
// (a shorter buffer is a contract error wrapping ErrShortScratch, with
// dst untouched), and the two must not overlap.
//
// maxScratch > 0 caps the child scratch in bytes (RecordSize per
// record). It is checked once the top pass has fixed the children,
// before the scratch grows: a call whose children need more returns an
// error wrapping ErrScratchCap, with src untouched. A canceled run, or
// one stopped by the cap, leaves dst a permutation of src with no
// grouping guarantee. Allocation is as for Semisort once the child
// scratch is warm.
func (t *DovetailTables) SemisortFrom(ctx context.Context, procs int, src, dst []rec.Record, maxScratch int64, stats *DovetailStats) error {
	n := len(src)
	if len(dst) < n {
		return fmt.Errorf("%w: destination has %d records, need %d", ErrShortScratch, len(dst), n)
	}
	if n <= 1 {
		copy(dst, src)
		return nil
	}
	procs = parallel.Procs(procs)
	if procs == 1 || n < seqCutoff {
		t.ensure(1, 0)
		var st dtState
		st.procs = 1
		st.ctx = ctx
		st.tab = t
		st.capBytes = maxScratch
		dtSerialFrom(&st, src, dst[:n], 64, t.stack(0))
		return dtFinish(&st, stats)
	}
	t.ensure(procs+1, procs)
	st := &dtState{procs: procs, ctx: ctx, tab: t, capBytes: maxScratch}
	dtParallelFrom(st, src, dst[:n], 64, t.stack(procs))
	return dtFinish(st, stats)
}

func dtFinish(st *dtState, stats *DovetailStats) error {
	if stats != nil {
		stats.RadixNodes += st.radix.Load()
		stats.DovetailNodes += st.dovetail.Load()
		stats.HeavyKeysPlaced += st.heavy.Load()
		stats.HeavyRecords += st.heavyRec.Load()
	}
	return st.firstErr
}

// dtSample gates the node and, when the run continues, samples for heavy
// keys, updating the routing counters. It returns the heavy count and
// whether the node must stop.
func dtSample(st *dtState, a []rec.Record, hk *[dtMaxHeavy]uint64) (nh int, stop bool) {
	if st.gate() {
		return 0, true
	}
	nh = dtSampleHeavy(a, hk)
	if nh > 0 {
		st.dovetail.Add(1)
		st.heavy.Add(int64(nh))
	} else {
		st.radix.Add(1)
	}
	return nh, false
}

// dtSampleHeavy samples dtSampleSize keys at fixed strides, sorts the
// sample, and extracts (ascending) the keys with at least dtHeavyHits
// occurrences. len(a) must be >= dtSampleCutoff, so strides are wide.
func dtSampleHeavy(a []rec.Record, hk *[dtMaxHeavy]uint64) int {
	stride := len(a) / dtSampleSize
	var s [dtSampleSize]uint64
	for i := 0; i < dtSampleSize; i++ {
		s[i] = a[i*stride].Key
	}
	for i := 1; i < dtSampleSize; i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
	nh := 0
	for i := 0; i < dtSampleSize && nh < dtMaxHeavy; {
		j := i + 1
		for j < dtSampleSize && s[j] == s[i] {
			j++
		}
		if j-i >= dtHeavyHits {
			hk[nh] = s[i]
			nh++
		}
		i = j
	}
	return nh
}

// dtHeavySet is a dovetail pass's heavy keys (ascending) and its digit ->
// heavy-index bitmask table: bit j of mask[d] is set when heavy key j has
// digit d. Light records whose digit has no heavy key pay one extra load
// and a never-taken branch.
type dtHeavySet struct {
	hk   [dtMaxHeavy]uint64
	nh   int
	mask [1 << dtHeavyBits]uint16
}

func (h *dtHeavySet) build(shift uint, dmask uint64) {
	for j, k := range h.hk[:h.nh] {
		h.mask[k>>shift&dmask] |= 1 << j
	}
}

// bin is the record's bin in a dovetail pass: heavy index j on a full-key
// match with hk[j], else nh + digit.
func (h *dtHeavySet) bin(k uint64, shift uint, dmask uint64) int {
	d := k >> shift & dmask
	for m := h.mask[d]; m != 0; m &= m - 1 {
		if j := bits.TrailingZeros16(m); h.hk[j] == k {
			return j
		}
	}
	return h.nh + int(d)
}

// dtSplit describes a finished distribution pass: ends[b] is one past
// the last record of bin b, heavy bins [0, nh) first. A nil ends means
// every record shared the digit, so the (stable) pass was skipped and
// the node continues on the next digit in the same buffer.
type dtSplit struct {
	ends []int32
	nh   int
	w    int // digit bits consumed
}

// heavyEnd is one past the last record of the heavy bins.
func (sp *dtSplit) heavyEnd() int {
	if sp.nh == 0 {
		return 0
	}
	return int(sp.ends[sp.nh-1])
}

// lightSizes returns the record counts of the largest light bin below
// seqCutoff (a serial subtree of a parallel node) and of the largest one
// at or above it (a parallel child), 0 when there is none.
func (sp *dtSplit) lightSizes() (serial, par int) {
	lo := sp.heavyEnd()
	for _, e := range sp.ends[sp.nh:] {
		if m := int(e) - lo; m < seqCutoff {
			serial = max(serial, m)
		} else {
			par = max(par, m)
		}
		lo = int(e)
	}
	return serial, par
}

// dtSerialPass runs one node's distribution pass from src into dst: it
// samples the node when it is large enough, then makes a dovetail pass
// (heavy keys found) or a radix pass of dtDigitBits width. The bin ends
// occupy the front of stk. stop reports a canceled node; src is then
// untouched.
func dtSerialPass(st *dtState, src, dst []rec.Record, rem int, stk []int32) (sp dtSplit, stop bool) {
	if len(src) >= dtSampleCutoff {
		return dtSerialSampled(st, src, dst, rem, stk)
	}
	return dtSerialRadix(src, dst, rem, stk), false
}

// dtSerialSampled is dtSerialPass for a node large enough to sample; it
// keeps the heavy set off the frames of the far more numerous small nodes.
func dtSerialSampled(st *dtState, src, dst []rec.Record, rem int, stk []int32) (sp dtSplit, stop bool) {
	var hs dtHeavySet
	if hs.nh, stop = dtSample(st, src, &hs.hk); stop {
		return sp, true
	}
	if hs.nh == 0 {
		return dtSerialRadix(src, dst, rem, stk), false
	}
	sp.w = min(dtHeavyBits, rem)
	shift, dmask := uint(rem-sp.w), uint64(1)<<sp.w-1
	hs.build(shift, dmask)
	sp.nh = hs.nh
	sp.ends = stk[:hs.nh+1<<sp.w]
	clear(sp.ends)
	dtCountHeavy(src, sp.ends, &hs, shift, dmask)
	dtScan(sp.ends, len(src))
	dtScatterHeavy(src, dst, sp.ends, &hs, shift, dmask)
	st.heavyRec.Add(int64(sp.heavyEnd()))
	return sp, false
}

// dtSerialRadix is a serial radix pass of dtDigitBits width; a pass that
// would leave every record in one bin is skipped (nil ends). A node whose
// records all share one key would skip every pass left, so it consumes
// all rem bits at once, before any count: a one-key node below
// dtSampleCutoff is never sampled, and would otherwise count itself once
// per remaining digit. dtOneKey stops at the first differing key, so the
// check costs the other nodes a few loads.
func dtSerialRadix(src, dst []rec.Record, rem int, stk []int32) (sp dtSplit) {
	if dtOneKey(src) {
		sp.w = rem
		return sp
	}
	sp.w = dtDigitBits(len(src), rem)
	shift := uint(rem - sp.w)
	ends := stk[:1<<sp.w]
	clear(ends)
	dtCount(src, ends, shift)
	if dtScan(ends, len(src)) {
		return sp
	}
	dtScatter(src, dst, ends, shift)
	sp.ends = ends
	return sp
}

// dtScan turns counts into exclusive offsets in place (the scatter then
// advances each offset to its bin's end). It reports whether a single
// bin holds all n records, in which case a stable pass is the identity.
func dtScan(c []int32, n int) (oneBin bool) {
	sum := int32(0)
	for b, v := range c {
		if int(v) == n {
			oneBin = true
		}
		c[b] = sum
		sum += v
	}
	return oneBin
}

// dtOneKey reports whether every record of src has src[0]'s key.
func dtOneKey(src []rec.Record) bool {
	k := src[0].Key
	for i := range src {
		if src[i].Key != k {
			return false
		}
	}
	return true
}

// dtCount adds src's digit histogram (bins = len(c), a power of two) to c.
func dtCount(src []rec.Record, c []int32, shift uint) {
	dmask := uint64(len(c) - 1)
	for i := range src {
		c[src[i].Key>>shift&dmask]++
	}
}

// dtScatter stably moves src into dst at the running offsets offs,
// leaving offs[b] at the end of bin b.
func dtScatter(src, dst []rec.Record, offs []int32, shift uint) {
	dmask := uint64(len(offs) - 1)
	for i := range src {
		d := src[i].Key >> shift & dmask
		dst[offs[d]] = src[i]
		offs[d]++
	}
}

// dtCountHeavy is dtCount over a dovetail pass's bins.
func dtCountHeavy(src []rec.Record, c []int32, hs *dtHeavySet, shift uint, dmask uint64) {
	for i := range src {
		c[hs.bin(src[i].Key, shift, dmask)]++
	}
}

// dtScatterHeavy is dtScatter over a dovetail pass's bins.
func dtScatterHeavy(src, dst []rec.Record, offs []int32, hs *dtHeavySet, shift uint, dmask uint64) {
	for i := range src {
		b := hs.bin(src[i].Key, shift, dmask)
		dst[offs[b]] = src[i]
		offs[b]++
	}
}

// dtSerial groups a by its low rem key bits; the result ends in a and
// scratch is clobbered. It is closure-free, so warm serial runs allocate
// nothing; stk is the free part of the worker's count stack.
func dtSerial(st *dtState, a, scratch []rec.Record, rem int, stk []int32) {
	if len(a) <= smallCutoff {
		insertionSort(a)
		return
	}
	if rem == 0 {
		return // keys in this segment are equal: already one group
	}
	sp, stop := dtSerialPass(st, a, scratch, rem, stk)
	if stop {
		return
	}
	if sp.ends == nil {
		dtSerial(st, a, scratch, rem-sp.w, stk)
		return
	}
	dtSerialHome(st, scratch, a, sp, rem-sp.w, stk)
}

// dtSerialFrom is dtSerial reading src and leaving the result in dst; src
// is never written. Its first pass scatters src into dst, then each light
// child groups in place there through the tables' child scratch, sized
// to the largest child.
func dtSerialFrom(st *dtState, src, dst []rec.Record, rem int, stk []int32) {
	if len(src) <= smallCutoff {
		insertionSortInto(src, dst)
		return
	}
	if rem == 0 {
		copy(dst, src)
		return
	}
	sp, stop := dtSerialPass(st, src, dst, rem, stk)
	if stop {
		copy(dst, src) // keep dst a permutation on a stopped run
		return
	}
	if sp.ends == nil {
		dtSerialFrom(st, src, dst, rem-sp.w, stk)
		return
	}
	scratch, err := st.tab.childScratch(max(sp.lightSizes()), st.capBytes)
	if err != nil {
		st.fail(err)
		return
	}
	// Heavy records landed in dst already — final.
	lo := sp.heavyEnd()
	child := stk[len(sp.ends):]
	for _, e := range sp.ends[sp.nh:] {
		hi := int(e)
		if hi-lo > 1 {
			dtSerial(st, dst[lo:hi], scratch[:hi-lo], rem-sp.w, child)
		}
		lo = hi
	}
}

// dtSerialHome finishes a node whose pass left its records in data, with
// the result in home: the heavy region is final, so it moves home once
// and is never touched again, and each light bin is grouped by its low
// crem key bits into home.
func dtSerialHome(st *dtState, data, home []rec.Record, sp dtSplit, crem int, stk []int32) {
	lo := sp.heavyEnd()
	copy(home[:lo], data[:lo])
	child := stk[len(sp.ends):]
	for _, e := range sp.ends[sp.nh:] {
		hi := int(e)
		switch hi - lo {
		case 0:
		case 1:
			home[lo] = data[lo]
		default:
			dtSerialInto(st, data[lo:hi], home[lo:hi], crem, child)
		}
		lo = hi
	}
}

// dtSerialInto is dtSerial with the result in dst; src is clobbered.
// len(src) == len(dst).
func dtSerialInto(st *dtState, src, dst []rec.Record, rem int, stk []int32) {
	if len(src) <= smallCutoff {
		insertionSortInto(src, dst)
		return
	}
	if rem == 0 {
		copy(dst, src)
		return
	}
	sp, stop := dtSerialPass(st, src, dst, rem, stk)
	if stop {
		copy(dst, src) // keep dst a permutation on a stopped run
		return
	}
	if sp.ends == nil {
		dtSerialInto(st, src, dst, rem-sp.w, stk)
		return
	}
	// Heavy records landed in dst already — final.
	lo := sp.heavyEnd()
	child := stk[len(sp.ends):]
	for _, e := range sp.ends[sp.nh:] {
		hi := int(e)
		if hi > lo {
			dtSerial(st, dst[lo:hi], src[lo:hi], rem-sp.w, child)
		}
		lo = hi
	}
}

// insertionSortInto is insertionSort of src with the result in dst.
func insertionSortInto(src, dst []rec.Record) {
	for i, r := range src {
		j := i - 1
		for j >= 0 && dst[j].Key > r.Key {
			dst[j+1] = dst[j]
			j--
		}
		dst[j+1] = r
	}
}

// dtParallel is the recursion over nodes of at least seqCutoff records at
// procs > 1. It groups src by its low rem key bits; the result ends in
// dst when into is set and in src otherwise, and the other buffer is
// clobbered. Its passes run over blocks on all workers; children below
// seqCutoff are handed out by parallel.For over bin ranges, each one a
// closure-free serial subtree on a worker's own count stack, and larger
// children recurse here one at a time. stk is the parallel nodes' count
// stack.
func dtParallel(st *dtState, src, dst []rec.Record, rem int, stk []int32, into bool) {
	if rem == 0 {
		if into {
			dtCopy(st.procs, dst, src)
		}
		return
	}
	sp, stop := dtParallelPass(st, src, dst, rem, stk)
	if stop {
		if into {
			dtCopy(st.procs, dst, src)
		}
		return
	}
	if sp.ends == nil {
		dtParallel(st, src, dst, rem-sp.w, stk, into)
		return
	}
	// The node's records now sit in dst; a child's home is dst when into
	// is set, else src.
	dtParallelChildren(st, dst, src, !into, false, sp, rem-sp.w, stk)
}

// dtParallelFrom is dtParallel reading src and leaving the result in dst;
// src is never written. Its first pass scatters src into dst, then the
// light children group in place there through the tables' child
// scratch: procs worker slices of the largest serial subtree's size,
// overlaid by the largest parallel child, which runs after every serial
// subtree has finished.
func dtParallelFrom(st *dtState, src, dst []rec.Record, rem int, stk []int32) {
	if rem == 0 {
		dtCopy(st.procs, dst, src)
		return
	}
	sp, stop := dtParallelPass(st, src, dst, rem, stk)
	if stop {
		dtCopy(st.procs, dst, src)
		return
	}
	if sp.ends == nil {
		dtParallelFrom(st, src, dst, rem-sp.w, stk)
		return
	}
	serial, par := sp.lightSizes()
	scratch, err := st.tab.childScratch(max(st.procs*serial, par), st.capBytes)
	if err != nil {
		st.fail(err)
		return
	}
	dtParallelChildren(st, dst, scratch, false, true, sp, rem-sp.w, stk)
}

// dtParallelChildren finishes a parallel node whose pass left its records
// in data, grouping each light bin by its low crem key bits. With move
// set the result belongs in other: the final heavy region moves there
// once and every child groups into it. Otherwise the children group in
// place in data, with other as their scratch: the bin's own range of
// other, or, with pooled set, other is child scratch sized by
// dtParallelFrom, whose worker slot s lends its serial subtrees the
// s-th of st.procs equal slices and whose parallel children take its
// front.
func dtParallelChildren(st *dtState, data, other []rec.Record, move, pooled bool, sp dtSplit, crem int, stk []int32) {
	heavyEnd := sp.heavyEnd()
	if move {
		dtCopy(st.procs, other[:heavyEnd], data[:heavyEnd])
	}
	wlen := len(other) / st.procs
	light := sp.ends[sp.nh:]
	parallel.For(st.procs, len(light), parallel.Grain(len(light), st.procs, 1), func(blo, bhi int) {
		s := <-st.tab.free
		wstk := st.tab.stack(s)
		lo := heavyEnd
		if blo > 0 {
			lo = int(light[blo-1])
		}
		for _, e := range light[blo:bhi] {
			hi := int(e)
			if hi-lo < seqCutoff && hi > lo {
				var aside []rec.Record
				if pooled {
					aside = other[s*wlen : s*wlen+hi-lo]
				} else {
					aside = other[lo:hi]
				}
				dtSubtree(st, data[lo:hi], aside, move, crem, wstk)
			}
			lo = hi
		}
		st.tab.free <- s
	})
	child := stk[len(sp.ends):]
	lo := heavyEnd
	for _, e := range light {
		hi := int(e)
		if hi-lo >= seqCutoff {
			var aside []rec.Record
			if pooled {
				aside = other[:hi-lo]
			} else {
				aside = other[lo:hi]
			}
			dtParallel(st, data[lo:hi], aside, crem, child, move)
		}
		lo = hi
	}
}

// dtSubtree runs one subtree a parallel pass handed out: it gates, then
// groups data with the serial recursion, moving the result into other
// when move is set (in place otherwise).
func dtSubtree(st *dtState, data, other []rec.Record, move bool, rem int, stk []int32) {
	switch {
	case st.gate():
		if move {
			copy(other, data)
		}
	case move:
		dtSerialInto(st, data, other, rem, stk)
	default:
		dtSerial(st, data, other, rem, stk)
	}
}

// dtCopy copies src into dst (equal lengths) on procs workers.
func dtCopy(procs int, dst, src []rec.Record) {
	parallel.For(procs, len(dst), 1<<14, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// dtParallelPass is dtSerialPass over blocks on st.procs workers: per-block
// histograms in the tables' hist, a column-major exclusive scan, and a
// per-block stable scatter, so the layout is identical to the serial
// pass at any proc count. Nodes here are always large enough to sample.
func dtParallelPass(st *dtState, src, dst []rec.Record, rem int, stk []int32) (sp dtSplit, stop bool) {
	hs := new(dtHeavySet)
	if hs.nh, stop = dtSample(st, src, &hs.hk); stop {
		return sp, true
	}
	n := len(src)
	sp.nh = hs.nh
	if hs.nh > 0 {
		sp.w = min(dtHeavyBits, rem)
	} else {
		sp.w = dtDigitBits(n, rem)
	}
	shift, dmask := uint(rem-sp.w), uint64(1)<<sp.w-1
	hs.build(shift, dmask)
	bins := hs.nh + 1<<sp.w
	grain := parallel.Grain(n, st.procs, dtParGrain)
	nblocks := (n + grain - 1) / grain
	if cap(st.tab.hist) < nblocks*bins {
		st.tab.hist = make([]int32, nblocks*bins)
	}
	hist := st.tab.hist[:nblocks*bins]
	clear(hist)
	parallel.For(st.procs, nblocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			s, e := blk*grain, min((blk+1)*grain, n)
			c := hist[blk*bins : (blk+1)*bins]
			if hs.nh > 0 {
				dtCountHeavy(src[s:e], c, hs, shift, dmask)
			} else {
				dtCount(src[s:e], c, shift)
			}
		}
	})
	// Column-major exclusive scan, heavy bins first, so the scatter below
	// is stable and heavy records end up ahead of all light records.
	ends := stk[:bins]
	sum := int32(0)
	for b := 0; b < bins; b++ {
		for i := b; i < len(hist); i += bins {
			v := hist[i]
			hist[i] = sum
			sum += v
		}
		ends[b] = sum
	}
	if hs.nh == 0 && dtOneBin(ends, n) {
		return sp, false
	}
	parallel.For(st.procs, nblocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			s, e := blk*grain, min((blk+1)*grain, n)
			offs := hist[blk*bins : (blk+1)*bins]
			if hs.nh > 0 {
				dtScatterHeavy(src[s:e], dst, offs, hs, shift, dmask)
			} else {
				dtScatter(src[s:e], dst, offs, shift)
			}
		}
	})
	sp.ends = ends
	st.heavyRec.Add(int64(sp.heavyEnd()))
	return sp, false
}

// dtOneBin reports whether the bin ends describe a single non-empty bin
// holding all n records.
func dtOneBin(ends []int32, n int) bool {
	prev := int32(0)
	for _, e := range ends {
		if e != prev {
			return int(e-prev) == n
		}
		prev = e
	}
	return false
}
