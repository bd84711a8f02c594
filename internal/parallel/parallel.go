// Package parallel is a small fork–join runtime built on goroutines.
//
// It plays the role Cilk Plus plays in the paper's implementation: a
// parallel for-loop over blocked ranges (cilk_for) and binary fork–join for
// divide-and-conquer algorithms (cilk_spawn). All entry points take an
// explicit worker count so benchmarks can sweep thread counts the way the
// paper sweeps cores; pass Procs(0) (or any value <= 1) for sequential
// execution.
//
// Scheduling model: For splits [0, n) into chunks of at least `grain`
// elements and hands chunks to `procs` workers through an atomic cursor, so
// load imbalance between chunks is absorbed dynamically (the moral
// equivalent of work stealing for a flat loop). Run and Limiter provide
// nested fork–join with a bounded number of extra goroutines.
//
// Every entry point is panic-safe: a panic in a body function is captured
// on the worker, remaining work is drained, and the panic is re-raised on
// the joining goroutine as a *PanicError carrying the original value and
// the worker stack. ForCtx/ForEachCtx add cooperative cancellation,
// checked at chunk boundaries only so the per-iteration hot path is
// unaffected.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obsv"
)

// DefaultProcs returns the worker count used when a caller passes procs <= 0:
// the current GOMAXPROCS setting.
func DefaultProcs() int {
	return runtime.GOMAXPROCS(0)
}

// Procs normalizes a requested worker count: values <= 0 become
// DefaultProcs(), everything else is returned unchanged.
func Procs(p int) int {
	if p <= 0 {
		return DefaultProcs()
	}
	return p
}

// chunksPerWorker controls how many chunks each worker gets on average when
// the caller does not force a grain. More chunks means better load balance
// at the cost of more cursor traffic; 8 matches common fork–join folklore.
const chunksPerWorker = 8

// Grain picks a chunk size for a loop of n iterations on procs workers,
// aiming for chunksPerWorker chunks per worker but never less than minGrain
// iterations per chunk.
func Grain(n, procs, minGrain int) int {
	procs = Procs(procs)
	if minGrain < 1 {
		minGrain = 1
	}
	g := n / (procs * chunksPerWorker)
	if g < minGrain {
		g = minGrain
	}
	return g
}

// For runs body over the index range [0, n) in parallel. body is called
// with half-open subranges [lo, hi) that together tile [0, n) exactly once.
// grain is the minimum subrange size; pass 0 to let the runtime choose.
//
// body must be safe to call concurrently from multiple goroutines on
// disjoint ranges. For blocks until all calls return.
//
// For is panic-safe: a panic in body is captured (value + worker stack),
// remaining chunks are abandoned, the surviving workers are joined, and
// the panic is re-raised on the calling goroutine as a *PanicError.
func For(procs, n, grain int, body func(lo, hi int)) {
	ForCtx(nil, procs, n, grain, body)
}

// ForCtx is For with cooperative cancellation: the chunk cursor stops
// handing out chunks once ctx is done and ForCtx returns ctx.Err().
// Chunks already running complete normally, so cancellation adds no
// per-iteration cost — it is checked only at chunk boundaries. A nil ctx
// never cancels. On cancellation body has been called for an arbitrary
// subset of the chunks.
func ForCtx(ctx context.Context, procs, n, grain int, body func(lo, hi int)) error {
	if n <= 0 {
		return ctxErr(ctx)
	}
	procs = Procs(procs)
	if grain <= 0 {
		grain = Grain(n, procs, 1)
	}
	if ctx == nil && (procs == 1 || n <= grain) {
		// Sequential fast path: one chunk, no goroutines, no cursor, and
		// no firstPanic (its address-taken atomic heap-allocates).
		if pe := capture(func() {
			if fault.Should(fault.WorkerPanic) {
				panic(fault.PanicValue)
			}
			body(0, n)
		}); pe != nil {
			panic(pe)
		}
		return nil
	}
	nchunks := (n + grain - 1) / grain
	workers := procs
	if workers > nchunks {
		workers = nchunks
	}

	var cursor atomic.Int64
	var fp firstPanic
	loop := func() {
		for {
			if fp.tripped() || ctxDone(ctx) {
				return
			}
			c := int(cursor.Add(1)) - 1
			if c >= nchunks {
				return
			}
			obsv.CountChunk()
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fp.note(capture(func() {
				if fault.Should(fault.WorkerPanic) {
					panic(fault.PanicValue)
				}
				body(lo, hi)
			}))
		}
	}
	if workers == 1 {
		loop()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go func() {
				defer wg.Done()
				loop()
			}()
		}
		loop()
		wg.Wait()
	}
	fp.rethrow()
	return ctxErr(ctx)
}

// SerialFor runs body(0, n) on the calling goroutine with the panic
// capture and fault injection of For's sequential fast path, but without
// letting body escape to the heap: closures handed to the goroutine
// runtimes are heap-allocated because the compiler cannot prove the
// goroutine outlives the caller, whereas SerialFor's body stays on the
// stack. Allocation-free call sites (the semisort steady state at
// procs == 1) depend on this. No cancellation, no goroutines.
func SerialFor(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	// capture's result is used directly: a firstPanic here would be
	// noting a single branch, and its address-taken atomic is moved to
	// the heap — one allocation per call on a path that exists to be
	// allocation-free.
	if pe := capture(func() {
		if fault.Should(fault.WorkerPanic) {
			panic(fault.PanicValue)
		}
		body(0, n)
	}); pe != nil {
		panic(pe)
	}
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ctxDone reports whether a non-nil ctx has been canceled.
func ctxDone(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// ForEach runs body(i) for every i in [0, n) in parallel. It is a
// convenience wrapper over For for bodies that do meaningful per-element
// work; tight loops should use For directly and iterate inside the block.
func ForEach(procs, n, grain int, body func(i int)) {
	For(procs, n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForEachCtx is ForEach with the cancellation semantics of ForCtx.
func ForEachCtx(ctx context.Context, procs, n, grain int, body func(i int)) error {
	return ForCtx(ctx, procs, n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Run executes the given functions, possibly in parallel, and waits for all
// of them. With procs <= 1 the functions run sequentially in order.
//
// Run is panic-safe: the first panicking function's panic is re-raised on
// the calling goroutine as a *PanicError after all spawned functions have
// been joined (in the sequential case, functions after the panicking one
// are skipped).
func Run(procs int, fns ...func()) {
	var fp firstPanic
	if Procs(procs) == 1 || len(fns) <= 1 {
		for _, fn := range fns {
			fp.note(capture(fn))
			if fp.tripped() {
				break
			}
		}
		fp.rethrow()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for _, fn := range fns[1:] {
		go func() {
			defer wg.Done()
			fp.note(capture(fn))
		}()
	}
	fp.note(capture(fns[0]))
	wg.Wait()
	fp.rethrow()
}

// A Limiter bounds the number of extra goroutines created by nested
// fork–join recursion. Each successful token acquisition permits one child
// to run in its own goroutine; when no token is available the child runs
// inline, so recursion always makes progress and total goroutines stay
// O(procs).
type Limiter struct {
	tokens chan struct{}
}

// NewLimiter returns a Limiter permitting roughly procs concurrent branches.
// procs <= 0 means DefaultProcs(). A nil *Limiter is valid and always runs
// inline.
func NewLimiter(procs int) *Limiter {
	procs = Procs(procs)
	if procs <= 1 {
		return nil
	}
	// A few extra tokens over procs keeps workers busy while spawned
	// children are between scheduling and running.
	return &Limiter{tokens: make(chan struct{}, 2*procs)}
}

// Parallel reports whether the limiter may run branches concurrently.
func (l *Limiter) Parallel() bool { return l != nil }

// Join runs a and b, in parallel when a token is available, and returns
// after both complete. It is panic-safe: the first branch panic is
// re-raised on the caller as a *PanicError after both branches joined (a
// not-yet-started inline b is skipped when a panics).
func (l *Limiter) Join(a, b func()) {
	var fp firstPanic
	if l == nil {
		fp.note(capture(a))
		if !fp.tripped() {
			fp.note(capture(b))
		}
		fp.rethrow()
		return
	}
	select {
	case l.tokens <- struct{}{}:
		obsv.CountLimiterSpawn(len(l.tokens))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-l.tokens }()
			fp.note(capture(b))
		}()
		fp.note(capture(a))
		wg.Wait()
	default:
		obsv.CountLimiterInline()
		fp.note(capture(a))
		if !fp.tripped() {
			fp.note(capture(b))
		}
	}
	fp.rethrow()
}

// JoinAll runs every function, using tokens to run as many as possible in
// parallel, and returns after all complete. Panic-safety matches Join:
// spawned functions always complete; inline functions after the first
// panic are skipped; the first panic re-raises after the join.
func (l *Limiter) JoinAll(fns ...func()) {
	var fp firstPanic
	if l == nil || len(fns) <= 1 {
		for _, fn := range fns {
			fp.note(capture(fn))
			if fp.tripped() {
				break
			}
		}
		fp.rethrow()
		return
	}
	var wg sync.WaitGroup
	inline := fns[:0:0]
	for _, fn := range fns {
		select {
		case l.tokens <- struct{}{}:
			obsv.CountLimiterSpawn(len(l.tokens))
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-l.tokens }()
				fp.note(capture(fn))
			}()
		default:
			obsv.CountLimiterInline()
			inline = append(inline, fn)
		}
	}
	for _, fn := range inline {
		if fp.tripped() {
			break
		}
		fp.note(capture(fn))
	}
	wg.Wait()
	fp.rethrow()
}
