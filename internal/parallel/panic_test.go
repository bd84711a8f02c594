package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// recoverPanicError runs fn and returns the *PanicError it panicked with,
// or nil if it returned normally.
func recoverPanicError(t *testing.T, fn func()) (pe *PanicError) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			pe, ok = r.(*PanicError)
			if !ok {
				t.Fatalf("panic value is %T, want *PanicError", r)
			}
		}
	}()
	fn()
	return nil
}

// checkGoroutines asserts the goroutine count settles back to within a
// small slack of base (background GC workers come and go).
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestForPanicPropagates(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, procs := range []int{1, 4} {
		pe := recoverPanicError(t, func() {
			For(procs, 10000, 16, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if i == 4242 {
						panic("boom at 4242")
					}
				}
			})
		})
		if pe == nil {
			t.Fatalf("procs=%d: panic did not propagate", procs)
		}
		if pe.Value != "boom at 4242" {
			t.Errorf("procs=%d: panic value = %v", procs, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("procs=%d: no worker stack captured", procs)
		}
	}
	checkGoroutines(t, base)
}

func TestForPanicStopsHandingOutChunks(t *testing.T) {
	var executed atomic.Int64
	recoverPanicError(t, func() {
		For(4, 1<<20, 1, func(lo, hi int) {
			executed.Add(1)
			panic("first chunk panics")
		})
	})
	// Each of the <=4 workers can execute at most one chunk before
	// observing the tripped flag.
	if n := executed.Load(); n > 4 {
		t.Errorf("%d chunks ran after the first panic; want <= 4", n)
	}
}

func TestForPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel failure")
	pe := recoverPanicError(t, func() {
		For(2, 100, 10, func(lo, hi int) { panic(sentinel) })
	})
	if pe == nil || !errors.Is(pe, sentinel) {
		t.Fatalf("errors.Is through PanicError failed: %v", pe)
	}
}

func TestRunPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, procs := range []int{1, 4} {
		var other atomic.Bool
		pe := recoverPanicError(t, func() {
			Run(procs,
				func() { panic("first fn") },
				func() { other.Store(true) },
			)
		})
		if pe == nil {
			t.Fatalf("procs=%d: Run swallowed the panic", procs)
		}
	}
	checkGoroutines(t, base)
}

func TestLimiterJoinPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	l := NewLimiter(4)
	var bRan atomic.Bool
	pe := recoverPanicError(t, func() {
		l.Join(func() { panic("branch a") }, func() { bRan.Store(true) })
	})
	if pe == nil || pe.Value != "branch a" {
		t.Fatalf("Join panic = %v", pe)
	}
	// The other direction: the spawned branch panics.
	pe = recoverPanicError(t, func() {
		l.Join(func() {}, func() { panic("branch b") })
	})
	if pe == nil || pe.Value != "branch b" {
		t.Fatalf("Join spawned-branch panic = %v", pe)
	}
	checkGoroutines(t, base)
}

func TestLimiterJoinAllPanic(t *testing.T) {
	l := NewLimiter(2)
	var ran atomic.Int64
	pe := recoverPanicError(t, func() {
		fns := make([]func(), 20)
		for i := range fns {
			i := i
			fns[i] = func() {
				if i == 7 {
					panic("fn 7")
				}
				ran.Add(1)
			}
		}
		l.JoinAll(fns...)
	})
	if pe == nil {
		t.Fatal("JoinAll swallowed the panic")
	}
}

func TestLimiterDeepRecursionPanic(t *testing.T) {
	// A panic deep in a nested fork–join must surface once, as the same
	// *PanicError, with no deadlock.
	base := runtime.NumGoroutine()
	l := NewLimiter(4)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			panic("leaf")
		}
		l.Join(func() { rec(depth - 1) }, func() { rec(depth - 1) })
	}
	pe := recoverPanicError(t, func() { rec(10) })
	if pe == nil || pe.Value != "leaf" {
		t.Fatalf("nested panic = %v", pe)
	}
	checkGoroutines(t, base)
}

func TestForCtxNilBehavesLikeFor(t *testing.T) {
	var sum atomic.Int64
	if err := ForCtx(nil, 4, 1000, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if want := int64(1000*999) / 2; sum.Load() != want {
		t.Errorf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestForCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForCtx(ctx, 4, 1<<20, 1, func(lo, hi int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers check before claiming each chunk, so at most one chunk per
	// worker can slip through the initial race.
	if ran.Load() > 4 {
		t.Errorf("%d chunks ran under a pre-canceled context", ran.Load())
	}
}

func TestForCtxCancelMidway(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	const workers, cancelAt = 4, 8
	var ran, atCancel atomic.Int64
	err := ForCtx(ctx, workers, 1<<16, 1, func(lo, hi int) {
		if ran.Add(1) == cancelAt {
			cancel()
			atCancel.Store(ran.Load())
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every worker checks ctx before it claims a chunk, so once cancel
	// has returned, only the chunks the other workers had already claimed
	// can start. The bound counts from cancel's return, not from chunk
	// cancelAt: until cancel takes effect the other workers legitimately
	// keep claiming chunks, and a canceling worker descheduled in between
	// can see them finish the whole loop.
	if n, c := ran.Load(), atCancel.Load(); n > c+workers-1 {
		t.Errorf("ran %d chunks with %d workers, %d of them by cancel's return; want at most %d (err %v)",
			n, workers, c, c+workers-1, err)
	}
	checkGoroutines(t, base)
}

func TestForCtxCompletionBeatsCancel(t *testing.T) {
	// A loop that finishes before cancellation returns nil.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ForCtx(ctx, 4, 100, 0, func(lo, hi int) {}); err != nil {
		t.Fatalf("uncanceled ForCtx returned %v", err)
	}
}
