// Package server is the resident grouping service behind cmd/semisortd:
// it accepts concurrent semisort/group-by requests over HTTP and runs
// them on a shared, bounded pool of warm workspaces.
//
// Robustness is the design headline, in five mechanisms:
//
//   - Admission control: at most PoolSize requests sort at once and at
//     most MaxQueue wait; everything beyond that is shed with 503 +
//     Retry-After, so overload degrades to fast rejections instead of
//     unbounded queueing. Admission comes before the body read: the
//     Content-Length checks (413 over MaxRequestBytes, 400 when it is
//     not a whole number of records) and the queue run on the headers
//     alone, so a refused or shed request is answered with its body
//     unread. An admitted one
//     streams its body into the worker's reusable record buffer, under
//     the request deadline: a stalled upload holds its worker at most
//     that long.
//   - Deadlines and disconnects: every request runs under a context that
//     combines the server's base context, the per-request deadline and
//     the client connection, wired into the sort via Config.Context —
//     a hung client or an expired deadline cancels the work
//     cooperatively at phase/chunk boundaries.
//   - Tenant budgets: each request sorts with a MaxRetainedBytes share
//     of its tenant's budget, and the worker's request buffers (decoded
//     input and wire chunk) count toward the same share, so one hot
//     tenant cannot pin the pool's memory (see Pool).
//   - Graceful drain: Shutdown stops accepting, lets in-flight requests
//     finish within the drain deadline, then cancels the stragglers —
//     every accepted request gets a response.
//   - Non-blocking logging: the access/error log is an MPSC ring buffer
//     (RingLog); a slow log sink drops entries, never blocks a handler.
//
// Failure modes are deterministic under test via the fault points
// fault.ServerAccept, fault.ServerAdmission and fault.ServerHandlerPanic:
// a panicking or overflowing request yields a clean 500, its workspace is
// discarded or recycled, and the pool stays usable.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	semisort "repro"
	"repro/internal/obsv"
)

// Config configures a Server. The zero value serves with the defaults
// noted per field.
type Config struct {
	// PoolSize is the number of warm workspaces (concurrent sorts).
	// Default GOMAXPROCS.
	PoolSize int
	// MaxQueue bounds the admission wait queue. Default 4×PoolSize.
	MaxQueue int
	// RequestTimeout is the per-request deadline ceiling; a request may
	// lower it via the timeout_ms query parameter but never raise it.
	// Default 30s.
	RequestTimeout time.Duration
	// DrainTimeout is how long Shutdown lets in-flight requests finish
	// before canceling them. Default 10s.
	DrainTimeout time.Duration
	// RetryAfter is the hint sent with 503 responses. Default 1s.
	RetryAfter time.Duration
	// MaxRequestBytes caps a request body. Default 64 MiB.
	MaxRequestBytes int64
	// DefaultTenantBudget is the retained-scratch budget per tenant in
	// bytes (see Pool); TenantBudgets overrides it per tenant id.
	// Default 256 MiB; <0 means uncapped.
	DefaultTenantBudget int64
	// TenantBudgets maps tenant ids to budget overrides.
	TenantBudgets map[string]int64
	// Semisort is the base sort configuration; per-request context and
	// budget fields are overlaid on it.
	Semisort semisort.Config
	// AccessLog receives the formatted ring-buffer access log; nil
	// disables writing (entries are still counted).
	AccessLog io.Writer
	// LogCapacity is the ring-buffer capacity in entries. Default 4096.
	LogCapacity int
	// Trace, when non-nil, receives one JSON object per request span
	// (the obsv.RequestSpan shape documented in docs/OBSERVABILITY.md).
	Trace io.Writer
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.PoolSize
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 64 << 20
	}
	if c.DefaultTenantBudget == 0 {
		c.DefaultTenantBudget = 256 << 20
	} else if c.DefaultTenantBudget < 0 {
		c.DefaultTenantBudget = 0 // 0 means uncapped at the pool layer
	}
	if c.LogCapacity <= 0 {
		c.LogCapacity = 4096
	}
	return c
}

// A Server is the resident grouping service. Create with New, serve with
// Serve/ListenAndServe, stop with Shutdown.
type Server struct {
	cfg   Config
	pool  *Pool
	log   *RingLog
	http  *http.Server
	start time.Time

	// baseCtx is the ancestor of every request context; cancelBase
	// fires when a drain overruns its deadline, cutting in-flight
	// sorts off cooperatively.
	baseCtx    context.Context
	cancelBase context.CancelFunc
	draining   atomic.Bool
	seq        atomic.Int64
	hist       latencyHists

	traceMu  sync.Mutex
	traceEnc *json.Encoder
}

// New returns an unstarted Server.
func New(cfg Config) *Server {
	c := cfg.withDefaults()
	s := &Server{
		cfg:   c,
		start: time.Now(),
		log:   NewRingLog(c.LogCapacity, c.AccessLog),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.pool = newPool(poolConfig{
		Size:          c.PoolSize,
		MaxQueue:      c.MaxQueue,
		BaseConfig:    c.Semisort,
		DefaultBudget: c.DefaultTenantBudget,
		Budgets:       c.TenantBudgets,
	})
	if c.Trace != nil {
		s.traceEnc = json.NewEncoder(c.Trace)
	}
	s.http = &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return s.baseCtx },
	}
	return s
}

// Pool returns the server's workspace pool (stats and tests).
func (s *Server) Pool() *Pool { return s.pool }

// Log returns the server's ring-buffer access log.
func (s *Server) Log() *RingLog { return s.log }

// Handler returns the server's HTTP handler (also used by httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/semisort", s.handleSemisort)
	mux.HandleFunc("POST /v1/groupby", s.handleGroupBy)
	mux.HandleFunc("POST /v1/reduce", s.handleReduce)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// Serve accepts connections on ln until Shutdown. Like
// http.Server.Serve, it returns http.ErrServerClosed after a clean stop.
func (s *Server) Serve(ln net.Listener) error { return s.http.Serve(ln) }

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	s.http.Addr = addr
	return s.http.ListenAndServe()
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, waits up to Config.DrainTimeout (or ctx, whichever ends
// first) for in-flight requests to finish, then cancels the stragglers'
// contexts so their sorts stop cooperatively and they respond with 503.
// Every accepted request gets a response. The ring log is flushed and
// closed last. Shutdown returns nil on a clean drain, even if stragglers
// had to be canceled; it returns an error only if connections could not
// be closed at all.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	dctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	err := s.http.Shutdown(dctx)
	if err != nil {
		// Drain deadline overrun: cancel in-flight work and give the
		// (now fast-failing) handlers a moment to write responses.
		s.cancelBase()
		fctx, fcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer fcancel()
		if err = s.http.Shutdown(fctx); err != nil {
			err = fmt.Errorf("server: force close after drain timeout: %w", s.http.Close())
		}
	}
	s.cancelBase()
	s.log.Close()
	if err != nil {
		return err
	}
	return nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// HandleSignals registers sigs (default SIGINT/SIGTERM) to trigger a
// graceful Shutdown. It returns a channel that receives the Shutdown
// error (nil on a clean drain) after a signal has been handled, and a
// stop function that unregisters the handler.
func (s *Server) HandleSignals(sigs ...os.Signal) (<-chan error, func()) {
	if len(sigs) == 0 {
		sigs = []os.Signal{os.Interrupt}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sigs...)
	done := make(chan error, 1)
	go func() {
		if _, ok := <-ch; !ok {
			return
		}
		done <- s.Shutdown(context.Background())
	}()
	var stopOnce sync.Once
	return done, func() { stopOnce.Do(func() { signal.Stop(ch); close(ch) }) }
}

// latencyHists are the server-side latency histograms: queue wait for
// every request that reached admission, sort time for every request
// that ran a sort, and total time for every request.
type latencyHists struct {
	queueWait, sort, total obsv.LatencyHist
}

// latencyStats is the latency_us object of /v1/stats.
type latencyStats struct {
	QueueWait obsv.LatencySummary `json:"queue_wait"`
	Sort      obsv.LatencySummary `json:"sort"`
	Total     obsv.LatencySummary `json:"total"`
}

// statsPayload is the /v1/stats response shape.
type statsPayload struct {
	Pool       obsv.PoolSnapshot      `json:"pool"`
	Tenants    map[string]tenantStats `json:"tenants"`
	Log        logStats               `json:"log"`
	LatencyUS  latencyStats           `json:"latency_us"`
	Requests   int64                  `json:"requests"`
	UptimeS    float64                `json:"uptime_s"`
	Goroutines int                    `json:"goroutines"`
	Draining   bool                   `json:"draining"`
}

type tenantStats struct {
	RetainedBytes int64 `json:"retained_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
}

type logStats struct {
	Drops       int64 `json:"drops"`
	WriteErrors int64 `json:"write_errors"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	tenants := make(map[string]tenantStats)
	for t, b := range s.pool.TenantRetained() {
		tenants[t] = tenantStats{RetainedBytes: b, BudgetBytes: s.pool.TenantBudget(t)}
	}
	p := statsPayload{
		Pool:    s.pool.Gauges().Snapshot(),
		Tenants: tenants,
		Log:     logStats{Drops: s.log.Drops(), WriteErrors: s.log.WriteErrors()},
		LatencyUS: latencyStats{
			QueueWait: s.hist.queueWait.Summary(),
			Sort:      s.hist.sort.Summary(),
			Total:     s.hist.total.Summary(),
		},
		Requests:   s.seq.Load(),
		UptimeS:    time.Since(s.start).Seconds(),
		Goroutines: runtime.NumGoroutine(),
		Draining:   s.draining.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(p)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

// trace records one finished request: its total time in the latency
// histogram, and its span in the ring log and the trace sink.
func (s *Server) trace(span obsv.RequestSpan) {
	s.hist.total.Observe(span.TotalUS)
	s.log.Push(span)
	if s.traceEnc != nil {
		s.traceMu.Lock()
		s.traceEnc.Encode(span)
		s.traceMu.Unlock()
	}
}
