package server

import (
	"context"
	"errors"
	"testing"
	"time"

	semisort "repro"
	"repro/internal/distgen"
)

func testPool(size, queue int, budget int64) *Pool {
	return newPool(poolConfig{
		Size:          size,
		MaxQueue:      queue,
		DefaultBudget: budget,
	})
}

func TestPoolAcquireRelease(t *testing.T) {
	p := testPool(2, 2, 0)
	ctx := context.Background()
	w1, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if g := p.Gauges().Active.Load(); g != 2 {
		t.Fatalf("Active = %d, want 2", g)
	}
	p.Release(w1, "a", false)
	p.Release(w2, "a", false)
	if g := p.Gauges().Active.Load(); g != 0 {
		t.Fatalf("Active = %d, want 0", g)
	}
	if g := p.Gauges().Admissions.Load(); g != 2 {
		t.Fatalf("Admissions = %d, want 2", g)
	}
}

func TestPoolQueueFull(t *testing.T) {
	p := testPool(1, 1, 0)
	ctx := context.Background()
	w, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// One waiter is allowed; it parks on the worker channel.
	waited := make(chan error, 1)
	go func() {
		wq, err := p.Acquire(ctx)
		if err == nil {
			p.Release(wq, "", false)
		}
		waited <- err
	}()
	// Wait until the waiter is queued.
	for p.waiters.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// The second waiter must be shed immediately.
	if _, err := p.Acquire(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if g := p.Gauges().Rejections.Load(); g != 1 {
		t.Fatalf("Rejections = %d, want 1", g)
	}
	p.Release(w, "", false)
	if err := <-waited; err != nil {
		t.Fatalf("queued waiter failed: %v", err)
	}
}

func TestPoolAcquireHonorsContext(t *testing.T) {
	p := testPool(1, 4, 0)
	w, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(w, "", false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if g := p.Gauges().Timeouts.Load(); g != 1 {
		t.Fatalf("Timeouts = %d, want 1", g)
	}
}

func TestPoolTenantBudgetShare(t *testing.T) {
	const size = 2
	const budget = 1 << 20 // 1 MiB across the pool
	p := testPool(size, 2, budget)

	recs := distgen.Generate(0, 200_000, distgen.Spec{Kind: distgen.Uniform, Param: 1e6}, 1)
	for i := 0; i < 2*size; i++ {
		w, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cfg := semisort.Config{MaxRetainedBytes: p.workerBudget("hot")}
		if _, _, err := w.sorter.SortConfigShared(recs, &cfg); err != nil {
			t.Fatal(err)
		}
		p.Release(w, "hot", false)
	}

	got := p.TenantRetained()["hot"]
	if got > budget {
		t.Fatalf("tenant retains %d bytes, budget %d", got, budget)
	}
	if got == 0 {
		t.Fatal("expected nonzero retention under a 1 MiB budget")
	}
	if rb := p.Gauges().RetainedBytes.Load(); rb != got {
		t.Fatalf("RetainedBytes gauge %d != tenant attribution %d (single tenant)", rb, got)
	}
}

func TestPoolDiscardDropsRetention(t *testing.T) {
	p := testPool(1, 1, 0)
	recs := distgen.Generate(0, 50_000, distgen.Spec{Kind: distgen.Uniform, Param: 1e6}, 1)

	w, _ := p.Acquire(context.Background())
	if _, err := w.sorter.Sort(recs); err != nil {
		t.Fatal(err)
	}
	w.in = append(w.in, recs...)
	w.chunk()
	p.Release(w, "t", false)
	if g := p.Gauges().RetainedBytes.Load(); g != w.sorter.RetainedBytes()+w.bufferBytes() || w.bufferBytes() == 0 {
		t.Fatalf("RetainedBytes = %d, want the sorter's scratch plus %d B of request buffers", g, w.bufferBytes())
	}

	w, _ = p.Acquire(context.Background())
	p.Release(w, "t", true) // discard
	if g := p.Gauges().RetainedBytes.Load(); g != 0 {
		t.Fatalf("RetainedBytes = %d after discard, want 0", g)
	}
	if w.in != nil || w.wire != nil {
		t.Fatal("discard kept the request buffers")
	}
	if g := p.Gauges().Discards.Load(); g != 1 {
		t.Fatalf("Discards = %d, want 1", g)
	}
	// The discarded worker is still serviceable.
	w, _ = p.Acquire(context.Background())
	out, err := w.sorter.Sort(recs)
	if err != nil || len(out) != len(recs) {
		t.Fatalf("sort after discard: len=%d err=%v", len(out), err)
	}
	p.Release(w, "t", false)
}

// postMem runs one semisort request for tenant through s's handler in
// memory and fails t unless it succeeds.
func postMem(t *testing.T, s *Server, tenant string, body []byte) {
	t.Helper()
	if w := serveMem(s, "POST", "/v1/semisort?tenant="+tenant, body, int64(len(body))); w.code != 200 {
		t.Fatalf("status %d: %s", w.code, w.body)
	}
}

func TestPoolBudgetBelowOneRequest(t *testing.T) {
	// The tenant's budget is a quarter of one request's decoded input.
	const budget = 256 << 10
	s := New(Config{PoolSize: 1, DefaultTenantBudget: budget})
	defer s.log.Close()
	body := encodeRecords(genRecords((1<<20)/16, 4))
	for range 2 {
		postMem(t, s, "small", body)
	}
	got := s.pool.TenantRetained()["small"]
	if got > budget {
		t.Fatalf("tenant retains %d bytes, budget %d", got, budget)
	}
	if rb := s.pool.Gauges().RetainedBytes.Load(); rb != got {
		t.Fatalf("RetainedBytes gauge %d != tenant attribution %d", rb, got)
	}
	w, _ := s.pool.Acquire(context.Background())
	defer s.pool.Release(w, "small", false)
	if w.in != nil {
		t.Fatalf("worker kept a %d-record input buffer over budget", cap(w.in))
	}
}

func TestPoolRetainedCountsRequestBuffers(t *testing.T) {
	s := New(Config{PoolSize: 1, DefaultTenantBudget: -1})
	defer s.log.Close()
	postMem(t, s, "acme", encodeRecords(genRecords(10_000, 4)))
	retained := s.pool.TenantRetained()["acme"]
	gauge := s.pool.Gauges().RetainedBytes.Load()

	w, _ := s.pool.Acquire(context.Background())
	defer s.pool.Release(w, "acme", false)
	if cap(w.in) < 10_000 || cap(w.wire) != wireChunk {
		t.Fatalf("request buffers not kept: cap(in) = %d, cap(wire) = %d", cap(w.in), cap(w.wire))
	}
	want := w.sorter.RetainedBytes() + int64(cap(w.in))*16 + int64(cap(w.wire))
	if retained != want || gauge != want {
		t.Fatalf("TenantRetained %d, RetainedBytes gauge %d; want sorter + buffers = %d", retained, gauge, want)
	}
}
