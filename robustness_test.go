package semisort

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestByPanicInKeyCallback: every generic entry point that hashes keys
// on the fork–join workers returns a panicking key callback as an error
// wrapping *PanicError, with nil output, and leaks no goroutine.
// Distinct has no key callback; its row panics in the hash of an
// unhashable dynamic value instead.
func TestByPanicInKeyCallback(t *testing.T) {
	items := make([]int, 50000)
	for i := range items {
		items[i] = i
	}
	const boom = "key callback exploded"
	key := func(v int) int {
		if v == 31337 {
			panic(boom)
		}
		return v % 100
	}
	cfg := &Config{Procs: 2}
	sum := Reduction[int, int]{
		Fold:  func(acc, v int) int { return acc + v },
		Merge: func(a, b int) int { return a + b },
	}
	anys := make([]any, len(items))
	for i := range anys {
		anys[i] = i % 100
	}
	anys[31337] = []int{31337}
	for _, tc := range []struct {
		name    string
		run     func() (out any, err error)
		wantVal any // nil: any panic value
	}{
		{"By", func() (any, error) { return By(items, key, cfg) }, boom},
		{"StableBy", func() (any, error) { return StableBy(items, key, cfg) }, boom},
		{"GroupBy", func() (any, error) { return GroupBy(items, key, cfg) }, boom},
		{"CountBy", func() (any, error) { return CountBy(items, key, cfg) }, boom},
		{"SumBy", func() (any, error) {
			return SumBy(items, key, func(v int) int { return v }, cfg)
		}, boom},
		{"ReduceBy", func() (any, error) { return ReduceBy(items, key, sum, cfg) }, boom},
		{"Distinct", func() (any, error) { return Distinct(anys, cfg) }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			out, err := tc.run()
			if err == nil {
				t.Fatal("panicking key callback returned no error")
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want a wrapped *PanicError", err)
			}
			if pe.Value == nil || (tc.wantVal != nil && pe.Value != tc.wantVal) {
				t.Errorf("panic value = %v, want %v", pe.Value, tc.wantVal)
			}
			if len(pe.Stack) == 0 {
				t.Error("no worker stack captured")
			}
			if v := reflect.ValueOf(out); v.IsValid() && !v.IsNil() {
				t.Errorf("output %T non-nil alongside an error", out)
			}
			settleGoroutines(t, base)
		})
	}
}

func TestRecordsCtxCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	recs := make([]Record, 100000)
	for i := range recs {
		recs[i] = Record{Key: uint64(i % 512), Value: uint64(i)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := RecordsCtx(ctx, recs, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Error("output non-nil alongside cancellation")
	}

	// An uncanceled context must not change the result.
	out, err = RecordsCtx(context.Background(), recs, nil)
	if err != nil {
		t.Fatalf("uncanceled RecordsCtx: %v", err)
	}
	if !IsSemisorted(out) {
		t.Error("RecordsCtx output not semisorted")
	}
	settleGoroutines(t, base)
}

func TestByInjectedHashCollision(t *testing.T) {
	items := make([]string, 20000)
	for i := range items {
		items[i] = strings.Repeat("k", i%37+1)
	}
	key := func(s string) int { return len(s) }

	// One injected collision: the Las Vegas rehash retries with a fresh
	// seed and the second verification passes.
	fault.Enable(fault.New(5).Arm(fault.HashCollision, 0, 1))
	out, err := By(items, key, &Config{Procs: 2})
	fault.Disable()
	if err != nil {
		t.Fatalf("By after one injected collision: %v", err)
	}
	seen := map[int]bool{}
	prev := -1
	for _, s := range out {
		if k := key(s); k != prev {
			if seen[k] {
				t.Fatalf("key %d appears in two separate groups", k)
			}
			seen[k] = true
			prev = k
		}
	}

	// Collisions on every verification: By must give up with a typed
	// error rather than loop forever or return a wrong grouping.
	inj := fault.New(5).Arm(fault.HashCollision, 0, 1000)
	fault.Enable(inj)
	out, err = By(items, key, &Config{Procs: 2})
	fault.Disable()
	if err == nil || !strings.Contains(err.Error(), "hash collision") {
		t.Fatalf("persistent collisions: err = %v, want hash collision error", err)
	}
	if out != nil {
		t.Error("output non-nil alongside collision exhaustion")
	}
	if inj.Fired(fault.HashCollision) < 2 {
		t.Errorf("collision point fired %d times, want one per retry", inj.Fired(fault.HashCollision))
	}
}

func TestRecordsInjectedWorkerPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	recs := make([]Record, 50000)
	for i := range recs {
		recs[i] = Record{Key: uint64(i % 256), Value: uint64(i)}
	}
	fault.Enable(fault.New(1).Arm(fault.WorkerPanic, 0, 1))
	out, err := Records(recs, &Config{Procs: 2})
	fault.Disable()
	if err == nil {
		t.Fatal("injected worker panic produced no error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a wrapped *PanicError", err)
	}
	if out != nil {
		t.Error("output non-nil alongside a panic error")
	}
	settleGoroutines(t, base)
}
