package semisort

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/obsv"
)

// The generic front-end contributes hash and verify spans around the
// core trace, indexed by rehash attempt.
func TestByEmitsHashAndVerifySpans(t *testing.T) {
	items := make([]int, 20000)
	for i := range items {
		items[i] = i % 64
	}
	var col Collector
	out, err := By(items, func(v int) int { return v }, &Config{Procs: 2, Observer: &col})
	if err != nil {
		t.Fatalf("By: %v", err)
	}
	if len(out) != len(items) {
		t.Fatalf("got %d items, want %d", len(out), len(items))
	}

	var hash, verify []obsv.Span
	for _, s := range col.Spans() {
		switch s.Phase {
		case PhaseHash:
			hash = append(hash, s)
		case PhaseVerify:
			verify = append(verify, s)
		}
	}
	if len(hash) != 1 || len(verify) != 1 {
		t.Fatalf("hash spans = %d, verify spans = %d, want 1 each", len(hash), len(verify))
	}
	if hash[0].Attempt != 0 || hash[0].Outcome != obsv.OutcomeOK {
		t.Errorf("hash span = %+v, want attempt 0 ok", hash[0])
	}
	if verify[0].Outcome != obsv.OutcomeOK {
		t.Errorf("verify span = %+v, want ok", verify[0])
	}
	// The core's own trace still arrives: the dovetail route's allocate
	// and localsort spans for attempt 0.
	if n := len(col.Spans()); n != 4 {
		t.Errorf("spans = %d, want 4 (hash + 2 core phases + verify)", n)
	}
}

// An injected hash collision must surface as a verify span with outcome
// "collision" for the failed attempt, then a clean rehash attempt.
func TestByTracesRehashOnCollision(t *testing.T) {
	items := make([]int, 5000)
	for i := range items {
		items[i] = i % 10
	}
	fault.Enable(fault.New(5).Arm(fault.HashCollision, 0, 1))
	defer fault.Disable()
	var col Collector
	if _, err := By(items, func(v int) int { return v }, &Config{Procs: 2, Observer: &col}); err != nil {
		t.Fatalf("By with one injected collision: %v", err)
	}

	var verify []obsv.Span
	for _, s := range col.Spans() {
		if s.Phase == PhaseVerify {
			verify = append(verify, s)
		}
	}
	if len(verify) != 2 {
		t.Fatalf("verify spans = %+v, want 2 (collision then ok)", verify)
	}
	if verify[0].Attempt != 0 || verify[0].Outcome != obsv.OutcomeCollision {
		t.Errorf("first verify span = %+v, want attempt 0 collision", verify[0])
	}
	if verify[1].Attempt != 1 || verify[1].Outcome != obsv.OutcomeOK {
		t.Errorf("second verify span = %+v, want attempt 1 ok", verify[1])
	}
}
