package semisort_test

import (
	"fmt"

	semisort "repro"
)

// ExampleConfig_observer traces one semisort call with the in-memory
// Collector: a clean run is a single "fresh" attempt whose phase spans
// arrive in pipeline order. The default planner sends a plain semisort
// to the radix kernel, so the trace holds its allocate and localsort
// spans; the sampled routes (ScatterProbing, and the counting scatter a
// fused reduce runs) trace all six phases.
func ExampleConfig_observer() {
	recs := make([]semisort.Record, 20000)
	for i := range recs {
		recs[i] = semisort.Record{Key: uint64(i % 100), Value: uint64(i)}
	}

	var trace semisort.Collector
	out, _ := semisort.Records(recs, &semisort.Config{Procs: 2, Observer: &trace})
	fmt.Println("semisorted:", semisort.IsSemisorted(out))

	for _, a := range trace.Attempts() {
		fmt.Printf("attempt %d (%s):\n", a.Index, a.Kind)
	}
	for _, s := range trace.Spans() {
		fmt.Printf("  %-9s %s\n", s.Phase, s.Outcome)
	}
	// Output:
	// semisorted: true
	// attempt 0 (fresh):
	//   allocate  ok
	//   localsort ok
}
