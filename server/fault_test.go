package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	semisort "repro"
	"repro/internal/fault"
	"repro/internal/rec"
)

// The fault tests prove the acceptance property: an injected accept
// failure, forced admission rejection, handler panic, or unrecoverable
// bucket overflow each yield a clean error response, and the pool keeps
// serving afterwards — no poisoned workspace, no stuck slot.

func TestInjectedAcceptFault(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1})
	fault.Enable(fault.New(1).Arm(fault.ServerAccept, 0, 1))
	defer fault.Disable()

	in := encodeRecords(genRecords(1000, 1))
	resp := postRecords(t, ts.URL+"/v1/semisort", in, nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(body), "injected accept fault") {
		t.Fatalf("body %q", body)
	}
	// Next request (occurrence 1, not armed) succeeds.
	resp = postRecords(t, ts.URL+"/v1/semisort", in, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after fault: status %d, want 200", resp.StatusCode)
	}
}

func TestInjectedAdmissionFault(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1, RetryAfter: 2 * time.Second})
	fault.Enable(fault.New(1).Arm(fault.ServerAdmission, 0, 1))
	defer fault.Disable()

	in := encodeRecords(genRecords(1000, 1))
	resp := postRecords(t, ts.URL+"/v1/semisort", in, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	if g := s.pool.Gauges().Rejections.Load(); g != 1 {
		t.Fatalf("Rejections = %d, want 1", g)
	}
	resp = postRecords(t, ts.URL+"/v1/semisort", in, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after fault: status %d, want 200", resp.StatusCode)
	}
}

func TestInjectedHandlerPanicRecyclesWorkspace(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1})
	fault.Enable(fault.New(1).Arm(fault.ServerHandlerPanic, 0, 1))
	defer fault.Disable()

	in := genRecords(20_000, 2)
	resp := postRecords(t, ts.URL+"/v1/semisort", encodeRecords(in), nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(body), "handler panic") {
		t.Fatalf("body %q", body)
	}
	g := s.pool.Gauges()
	if g.Panics.Load() != 1 || g.Discards.Load() != 1 {
		t.Fatalf("Panics=%d Discards=%d, want 1/1", g.Panics.Load(), g.Discards.Load())
	}
	if g.Active.Load() != 0 {
		t.Fatalf("Active = %d after panic, want 0 (slot recycled)", g.Active.Load())
	}

	// The pool (size 1: the same slot) keeps serving correct results.
	for i := 0; i < 3; i++ {
		resp = postRecords(t, ts.URL+"/v1/semisort", encodeRecords(in), nil)
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after panic: status %d", i, resp.StatusCode)
		}
		decoded, err := rec.DecodeRecords(nil, out)
		if err != nil || !rec.SamePermutation(in, decoded) || !rec.IsSemisorted(decoded) {
			t.Fatalf("request %d after panic: bad output (err=%v)", i, err)
		}
	}
}

// /v1/reduce is a fused call, so it runs the counting scatter whatever
// the server's ScatterStrategy says: the probing overflow fault that
// fails /v1/semisort above never reaches it.
func TestReduceEndpointIgnoresProbingOverflow(t *testing.T) {
	_, ts := newTestServer(t, Config{
		PoolSize: 1,
		Semisort: semisort.Config{
			DisableFallback: true,
			ScatterStrategy: semisort.ScatterProbing,
		},
	})
	inj := fault.New(1).Arm(fault.ScatterOverflow, 0, 8)
	fault.Enable(inj)
	defer fault.Disable()

	in := genRecords(20_000, 5)
	resp := postRecords(t, ts.URL+"/v1/reduce", encodeRecords(in), nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200", resp.StatusCode, body)
	}
	out, err := rec.DecodeRecords(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.KeyCounts(in)
	if len(out) != len(want) {
		t.Fatalf("%d groups, want %d", len(out), len(want))
	}
	for _, r := range out {
		if r.Value != uint64(want[r.Key]) {
			t.Fatalf("count[%#x] = %d, want %d", r.Key, r.Value, want[r.Key])
		}
	}
	if f := inj.Fired(fault.ScatterOverflow); f != 0 {
		t.Errorf("ScatterOverflow fired %d times on /v1/reduce", f)
	}
}

func TestBucketOverflowFaultYieldsClean500(t *testing.T) {
	// DisableFallback turns retry exhaustion into an error; arming
	// ScatterOverflow for more than the 4 attempts guarantees
	// exhaustion. The request must fail with a clean 500 and the pool
	// must stay reusable.
	s, ts := newTestServer(t, Config{
		PoolSize: 1,
		Semisort: semisort.Config{
			DisableFallback: true,
			ScatterStrategy: semisort.ScatterProbing,
		},
	})
	fault.Enable(fault.New(1).Arm(fault.ScatterOverflow, 0, 8))

	in := genRecords(20_000, 3)
	resp := postRecords(t, ts.URL+"/v1/semisort", encodeRecords(in), nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fault.Disable()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "overflow") {
		t.Fatalf("body %q does not mention overflow", body)
	}
	if g := s.pool.Gauges().Active.Load(); g != 0 {
		t.Fatalf("Active = %d, want 0", g)
	}

	// Injector off: the same request now succeeds on the same slot.
	resp = postRecords(t, ts.URL+"/v1/semisort", encodeRecords(in), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after overflow fault: status %d, want 200", resp.StatusCode)
	}
}
