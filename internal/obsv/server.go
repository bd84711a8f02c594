package obsv

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Server-side observability: the gauge/counter set for semisortd's
// workspace pool and the per-request span record its access log and trace
// sink share. Counters are plain atomics bumped unconditionally — a
// resident server always wants them, so unlike the scheduler counters
// there is no enable/disable refcount.

// PoolGauges is the live counter set of one workspace pool. All fields
// are written with atomic operations; read a consistent view with
// Snapshot. The zero value is ready.
type PoolGauges struct {
	// QueueDepth is the number of requests currently waiting for a
	// workspace (a gauge, not a counter).
	QueueDepth atomic.Int64
	// Active is the number of workspaces currently checked out.
	Active atomic.Int64
	// Admissions counts requests that acquired a workspace.
	Admissions atomic.Int64
	// Rejections counts requests shed because the wait queue was full
	// (the 503 + Retry-After path).
	Rejections atomic.Int64
	// Timeouts counts requests whose deadline expired or whose client
	// disconnected while they were queued or running.
	Timeouts atomic.Int64
	// Panics counts handler panics recovered while holding a workspace.
	Panics atomic.Int64
	// Discards counts workspaces whose retained scratch was dropped
	// before recycling — after a panic, or to enforce a tenant budget.
	Discards atomic.Int64
	// Drains counts in-flight requests canceled by a graceful drain
	// that overran its deadline.
	Drains atomic.Int64
	// RetainedBytes is the scratch memory currently retained across all
	// idle pool workspaces (a gauge, updated at release time).
	RetainedBytes atomic.Int64
}

// PoolSnapshot is a plain copy of the pool gauges, JSON-ready for the
// stats endpoint and the soak report.
type PoolSnapshot struct {
	QueueDepth    int64 `json:"queue_depth"`
	Active        int64 `json:"active"`
	Admissions    int64 `json:"admissions"`
	Rejections    int64 `json:"rejections"`
	Timeouts      int64 `json:"timeouts"`
	Panics        int64 `json:"panics"`
	Discards      int64 `json:"discards"`
	Drains        int64 `json:"drains"`
	RetainedBytes int64 `json:"retained_bytes"`
}

// Snapshot returns a point-in-time copy of the gauges.
func (g *PoolGauges) Snapshot() PoolSnapshot {
	return PoolSnapshot{
		QueueDepth:    g.QueueDepth.Load(),
		Active:        g.Active.Load(),
		Admissions:    g.Admissions.Load(),
		Rejections:    g.Rejections.Load(),
		Timeouts:      g.Timeouts.Load(),
		Panics:        g.Panics.Load(),
		Discards:      g.Discards.Load(),
		Drains:        g.Drains.Load(),
		RetainedBytes: g.RetainedBytes.Load(),
	}
}

// Request outcomes, as recorded in RequestSpan.Outcome. They classify
// how the request left the server, one level above HTTP status codes:
// the access log and the soak harness's drop accounting key off these.
const (
	ReqOK       = "ok"       // semisorted and responded
	ReqBadInput = "bad"      // malformed request, never admitted
	ReqShed     = "shed"     // admission queue full, 503 + Retry-After
	ReqTimeout  = "timeout"  // deadline expired (queued or mid-sort)
	ReqCanceled = "canceled" // client disconnected or drain canceled it
	ReqPanic    = "panic"    // handler panic, recovered, 500
	ReqError    = "error"    // semisort failed (e.g. overflow with fallback disabled)
)

// RequestSpan is the per-request record semisortd pushes into its
// ring-buffer access log and, when tracing is enabled, writes as one
// JSON object per line. Times are offsets within the request.
type RequestSpan struct {
	// Seq is the server-assigned request sequence number.
	Seq int64 `json:"seq"`
	// Start is the wall-clock start of the request.
	Start time.Time `json:"start"`
	// Tenant is the requester's tenant id ("" if none supplied).
	Tenant string `json:"tenant,omitempty"`
	// Path is the endpoint that served the request.
	Path string `json:"path"`
	// Status is the HTTP status written (0 if the client vanished
	// before a response could be written).
	Status int `json:"status"`
	// Outcome is one of the Req* constants.
	Outcome string `json:"outcome"`
	// Records is the number of input records decoded: 0 unless the
	// whole body was read.
	Records int `json:"records"`
	// BytesIn and BytesOut are the request/response payload sizes.
	// BytesIn counts the body bytes read, 0 for a request refused before
	// the read (the server admits before it reads).
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// QueueWaitUS is the time spent waiting for a workspace, in
	// microseconds (matching JSONSink's span convention).
	QueueWaitUS int64 `json:"queue_wait_us"`
	// SortUS is the time spent inside the semisort call itself.
	SortUS int64 `json:"sort_us"`
	// TotalUS is the end-to-end handler time.
	TotalUS int64 `json:"total_us"`
	// Attempts and FallbackUsed surface the sort's Las Vegas restarts and
	// fallback.
	Attempts     int  `json:"attempts,omitempty"`
	FallbackUsed bool `json:"fallback,omitempty"`
}

// LatencyHist is a log2-bucketed histogram of microsecond latencies:
// bucket 0 counts zeros and bucket i ≥ 1 counts [2^(i-1), 2^i). Observe
// is one atomic add and never allocates, so a resident server can keep
// one per request stage. The zero value is ready.
type LatencyHist struct {
	buckets [64]atomic.Int64
}

// Observe records one latency of us microseconds (negative counts as 0).
func (h *LatencyHist) Observe(us int64) {
	h.buckets[bits.Len64(uint64(max(us, 0)))].Add(1)
}

// LatencySummary is a histogram's count and quantiles, JSON-ready for the
// stats endpoint. A quantile is the inclusive upper edge of the bucket
// holding it, so the true value is at most that and more than half of it.
type LatencySummary struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50_us"`
	P99   int64 `json:"p99_us"`
	P999  int64 `json:"p999_us"`
}

// Summary returns the count and the p50, p99 and p999 upper bounds of
// the latencies observed so far.
func (h *LatencyHist) Summary() LatencySummary {
	var counts [len(h.buckets)]int64
	var s LatencySummary
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		s.Count += counts[i]
	}
	quantile := func(q float64) int64 {
		rank := int64(math.Ceil(q * float64(s.Count)))
		var seen int64
		for i, c := range counts {
			if seen += c; seen >= rank {
				return int64(uint64(1)<<i - 1)
			}
		}
		return 0
	}
	if s.Count > 0 {
		s.P50, s.P99, s.P999 = quantile(0.50), quantile(0.99), quantile(0.999)
	}
	return s
}
