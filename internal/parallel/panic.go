package parallel

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// A PanicError wraps a panic captured on a fork–join worker. Every entry
// point in this package (For, Run and the Limiter) converts a panicking
// body into a *PanicError and re-raises it on the joining goroutine after
// the remaining branches have been joined, so a panicking callback can
// never deadlock a join, leak worker goroutines, or kill the process from
// a goroutine with no recover frame above it.
//
// Callers that want the panic as an error (the public semisort API does)
// recover the *PanicError at their boundary; callers that don't recover
// see an ordinary panic whose message includes the original worker stack.
type PanicError struct {
	Value any    // the value passed to panic()
	Stack []byte // stack of the panicking worker (runtime/debug.Stack)
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in parallel worker: %v\nworker stack:\n%s", e.Value, e.Stack)
}

// Unwrap exposes a panic value that was itself an error to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// capture runs fn and converts a panic into a *PanicError, reusing the
// wrapper when the panic already crossed a nested fork–join boundary so
// the original worker stack survives arbitrarily deep nesting.
func capture(fn func()) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			if p, ok := r.(*PanicError); ok {
				pe = p
				return
			}
			pe = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// firstPanic keeps the first panic captured across a group of branches;
// later panics are dropped (the paper's algorithms treat any panic as
// fatal for the whole operation, so one is enough).
type firstPanic struct {
	p atomic.Pointer[PanicError]
}

func (f *firstPanic) note(pe *PanicError) {
	if pe != nil {
		f.p.CompareAndSwap(nil, pe)
	}
}

func (f *firstPanic) tripped() bool { return f.p.Load() != nil }

// rethrow re-raises the captured panic, if any, on the calling goroutine.
func (f *firstPanic) rethrow() {
	if pe := f.p.Load(); pe != nil {
		panic(pe)
	}
}
