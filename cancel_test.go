package semisort

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/distgen"
	"repro/internal/fault"
)

// Cancellation regressions: an already-expired deadline must abort before
// any parallel phase spins up, and a cancel landing mid-sort must be
// observed at a phase boundary — on the probing scatter and on the
// default kernel route (a plain ScatterCounting call is an alias of the
// default and keeps its subtest name) — without leaking worker
// goroutines either way.

func cancelTestInput(n int) []Record {
	return distgen.Generate(0, n, distgen.Spec{Kind: distgen.Zipfian, Param: 1e4}, 11)
}

func TestRecordsCtxExpiredDeadline(t *testing.T) {
	in := cancelTestInput(200_000)
	for _, strat := range []ScatterStrategy{ScatterProbing, ScatterCounting} {
		t.Run(strat.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithDeadline(context.Background(),
				time.Now().Add(-time.Second))
			defer cancel()
			out, err := RecordsCtx(ctx, in, &Config{ScatterStrategy: strat})
			if err == nil {
				t.Fatal("expired deadline: no error")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
			}
			if out != nil {
				t.Error("output non-nil alongside a cancellation error")
			}
			settleGoroutines(t, base)
		})
	}
}

func TestRecordsCtxMidPhaseCancel(t *testing.T) {
	// Deterministic mid-flight cancel: the first phase boundary blocks
	// until cancel() has run, so the sort is guaranteed to observe a
	// canceled context while work remains.
	in := cancelTestInput(200_000)
	for _, strat := range []ScatterStrategy{ScatterProbing, ScatterCounting} {
		t.Run(strat.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			inj := fault.New(1).Arm(fault.PhaseBoundary, 0, 1)
			inj.OnFire(fault.PhaseBoundary, cancel)
			fault.Enable(inj)
			defer fault.Disable()

			out, err := RecordsCtx(ctx, in, &Config{ScatterStrategy: strat, Procs: 4})
			if err == nil {
				t.Fatal("mid-phase cancel: no error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
			if out != nil {
				t.Error("output non-nil alongside a cancellation error")
			}
			settleGoroutines(t, base)
		})
	}
}

func TestSorterSurvivesCancelThenSorts(t *testing.T) {
	// A canceled sort must not poison a warm Sorter: the next call on the
	// same workspace has to produce a correct result.
	in := cancelTestInput(100_000)
	for _, strat := range []ScatterStrategy{ScatterProbing, ScatterCounting} {
		t.Run(strat.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := NewSorter(&Config{ScatterStrategy: strat})

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			cfg := Config{ScatterStrategy: strat, Context: ctx}
			if _, _, err := s.SortConfigShared(in, &cfg); err == nil {
				t.Fatal("canceled sort on warm sorter: no error")
			}

			out, err := s.Sort(in)
			if err != nil {
				t.Fatalf("sort after cancel: %v", err)
			}
			if !IsSemisorted(out) {
				t.Fatal("sort after cancel: output not semisorted")
			}
			settleGoroutines(t, base)
		})
	}
}
