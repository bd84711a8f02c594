package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"time"

	semisort "repro"
	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/rec"
)

// sortResult is what one admitted request produced: the semisorted
// records (a view into the worker's shared output buffer, valid until
// Release), the sort stats, and how it failed if it did.
type sortResult struct {
	out      []semisort.Record
	stats    semisort.Stats
	err      error
	panicked bool
	panicVal any
}

// sumReducer is the /v1/reduce op=sum aggregation: per key, the uint64
// sum of record values (wrapping).
var sumReducer = semisort.Reducer{
	Fold:  func(acc, v uint64) uint64 { return acc + v },
	Merge: func(a, b uint64) uint64 { return a + b },
}

// runSort executes the semisort — or, when req carries a reduce op, the
// fused reduction — of wk.in on wk's workspace, converting a handler
// panic (including the injected ServerHandlerPanic) into a result
// instead of letting it unwind into net/http — net/http would recover it
// too, but then the connection dies without a response and the worker
// would leak.
func (s *Server) runSort(ctx context.Context, wk *Worker, req *request) (res sortResult) {
	defer func() {
		if v := recover(); v != nil {
			res.panicked, res.panicVal = true, v
		}
	}()
	if fault.Should(fault.ServerHandlerPanic) {
		panic(fault.PanicValue)
	}
	cfg := s.cfg.Semisort
	cfg.Context = ctx
	cfg.MaxRetainedBytes = s.pool.workerBudget(req.tenant)
	// Shared-output calls: the output lives in the workspace (zero
	// allocations in steady state) and is written to the response before
	// Release; the retained-bytes budget covers it like any other scratch
	// buffer.
	var (
		out []semisort.Record
		st  semisort.Stats
		err error
	)
	switch req.op {
	case "":
		out, st, err = wk.sorter.SortConfigShared(wk.in, &cfg)
	case "count":
		out, st, err = wk.sorter.HistogramConfigShared(wk.in, &cfg)
	case "sum":
		out, st, err = wk.sorter.ReduceConfigShared(wk.in, sumReducer, &cfg)
	default:
		// handleReduce validates the op before admission; reaching here is
		// a programming error, reported rather than panicking.
		err = fmt.Errorf("unknown reduce op %q", req.op)
	}
	res.out, res.stats, res.err = out, st, err
	return res
}

// request is the per-request state threaded through the common pipeline
// shared by the record-out and JSON-out endpoints.
type request struct {
	span    obsv.RequestSpan
	tenant  string
	started time.Time
	// op selects the worker-side operation: "" for a plain semisort,
	// "count" or "sum" for the /v1/reduce aggregations.
	op string
}

// emitFunc writes the success response for res while the worker is
// still held (res.out aliases its workspace) and returns the bytes
// written.
type emitFunc func(w http.ResponseWriter, wk *Worker, req *request, res sortResult) (int64, error)

// accept runs the shared front half of every sort endpoint: drain and
// fault checks, tenant/deadline extraction, and the Content-Length
// checks. It reads no body byte, so a request refused here or shed at
// admission costs none. It returns a nil request after writing an error
// response itself.
func (s *Server) accept(w http.ResponseWriter, r *http.Request) (*request, context.Context, context.CancelFunc) {
	req := &request{started: time.Now()}
	req.span = obsv.RequestSpan{
		Seq:   s.seq.Add(1),
		Start: req.started,
		Path:  r.URL.Path,
	}
	if s.draining.Load() {
		s.finish(w, req, http.StatusServiceUnavailable, obsv.ReqShed, "draining")
		return nil, nil, nil
	}
	if fault.Should(fault.ServerAccept) {
		s.finish(w, req, http.StatusInternalServerError, obsv.ReqError, "injected accept fault")
		return nil, nil, nil
	}
	req.tenant = r.Header.Get("X-Semisort-Tenant")
	if req.tenant == "" {
		req.tenant = r.URL.Query().Get("tenant")
	}
	req.span.Tenant = req.tenant

	timeout := s.cfg.RequestTimeout
	if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
		v, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || v <= 0 {
			s.finish(w, req, http.StatusBadRequest, obsv.ReqBadInput, "bad timeout_ms")
			return nil, nil, nil
		}
		if d := time.Duration(v) * time.Millisecond; d < timeout {
			timeout = d
		}
	}

	// A chunked body (ContentLength -1) is checked while it streams in.
	switch n := r.ContentLength; {
	case n > s.cfg.MaxRequestBytes:
		s.finish(w, req, http.StatusRequestEntityTooLarge, obsv.ReqBadInput,
			fmt.Sprintf("request body of %d bytes exceeds the %d-byte limit", n, s.cfg.MaxRequestBytes))
		return nil, nil, nil
	case n > 0 && n%rec.RecordSize != 0:
		s.finish(w, req, http.StatusBadRequest, obsv.ReqBadInput,
			fmt.Sprintf("request body of %d bytes is not a multiple of the %d-byte record size", n, rec.RecordSize))
		return nil, nil, nil
	}

	// The request context combines the server base context (drain), the
	// client connection (disconnect) and the per-request deadline.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return req, ctx, cancel
}

// readBody streams r's body into wk.in through wk's wire chunk, bounded
// by MaxRequestBytes and, where the connection supports read deadlines,
// by the request deadline. It returns an empty outcome on success;
// otherwise the error response's status (0 when the client is gone),
// outcome and message.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, ctx context.Context,
	wk *Worker, req *request) (status int, outcome, msg string) {

	// An in-memory ResponseWriter returns ErrNotSupported; its read is
	// bounded only by what the caller's body does.
	rc := http.NewResponseController(w)
	deadlineSet := false
	if dl, ok := ctx.Deadline(); ok {
		deadlineSet = rc.SetReadDeadline(dl) == nil
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	cl := r.ContentLength
	wk.in = wk.in[:0]
	if cl > 0 {
		wk.in = slices.Grow(wk.in, int(cl/rec.RecordSize))
	}
	buf := wk.chunk()
	var total int64
	fill := 0 // bytes of a record split across two reads, kept at buf[:fill]
	defer func() { req.span.BytesIn = total }()
	for {
		n, err := body.Read(buf[fill:])
		fill += n
		total += int64(n)
		whole := fill - fill%rec.RecordSize
		wk.in, _ = rec.DecodeRecords(wk.in, buf[:whole])
		fill = copy(buf, buf[whole:fill])
		if cl >= 0 && total > cl {
			return http.StatusBadRequest, obsv.ReqBadInput,
				fmt.Sprintf("request body is longer than its Content-Length of %d bytes", cl)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			switch {
			case errors.As(err, &tooBig):
				return http.StatusRequestEntityTooLarge, obsv.ReqBadInput,
					fmt.Sprintf("request body exceeds the %d-byte limit", tooBig.Limit)
			case errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
				s.pool.Gauges().Timeouts.Add(1)
				return http.StatusGatewayTimeout, obsv.ReqTimeout, "deadline exceeded reading the body"
			default:
				// The connection broke mid-body: nobody is left to answer.
				return 0, obsv.ReqCanceled, fmt.Sprintf("read body: %v", err)
			}
		}
	}
	if fill != 0 {
		return http.StatusBadRequest, obsv.ReqBadInput,
			fmt.Sprintf("request body of %d bytes ends in a torn %d-byte record", total, fill)
	}
	if cl >= 0 && total != cl {
		return http.StatusBadRequest, obsv.ReqBadInput,
			fmt.Sprintf("request body of %d bytes is shorter than its Content-Length of %d", total, cl)
	}
	if deadlineSet {
		// Lift the deadline once the whole body is in: net/http's
		// background read would otherwise fail at it and cancel the
		// request context, turning a 504 into a silent cancellation. A
		// failed read keeps it, so net/http's discard of an unread body
		// cannot block either.
		rc.SetReadDeadline(time.Time{})
	}
	req.span.Records = len(wk.in)
	return 0, "", ""
}

// sortThrough runs admission, body read and sort for req and hands the
// result to emit while the worker is still held (the output aliases its
// workspace). emit must write the success response; sortThrough writes
// every error response itself.
func (s *Server) sortThrough(w http.ResponseWriter, r *http.Request, req *request, ctx context.Context, emit emitFunc) {
	queueStart := time.Now()
	wk, err := s.pool.Acquire(ctx)
	req.span.QueueWaitUS = time.Since(queueStart).Microseconds()
	s.hist.queueWait.Observe(req.span.QueueWaitUS)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.999)))
			s.finish(w, req, http.StatusServiceUnavailable, obsv.ReqShed, "admission queue full")
		case s.baseCtx.Err() != nil:
			s.pool.Gauges().Drains.Add(1)
			s.finish(w, req, http.StatusServiceUnavailable, obsv.ReqCanceled, "server draining")
		case errors.Is(err, context.DeadlineExceeded):
			s.finish(w, req, http.StatusGatewayTimeout, obsv.ReqTimeout, "deadline exceeded in queue")
		default:
			s.finish(w, req, 0, obsv.ReqCanceled, "client gone while queued")
		}
		return
	}

	if status, outcome, msg := s.readBody(w, r, ctx, wk, req); outcome != "" {
		s.pool.Release(wk, req.tenant, false)
		s.finish(w, req, status, outcome, msg)
		return
	}

	sortStart := time.Now()
	res := s.runSort(ctx, wk, req)
	req.span.SortUS = time.Since(sortStart).Microseconds()
	s.hist.sort.Observe(req.span.SortUS)

	if res.panicked {
		// The workspace was abandoned mid-sort; discard its buffers so a
		// possibly half-written scratch state never serves another
		// request, and recycle the slot — the pool is not poisoned.
		s.pool.Gauges().Panics.Add(1)
		s.pool.Release(wk, req.tenant, true)
		s.finish(w, req, http.StatusInternalServerError, obsv.ReqPanic,
			fmt.Sprintf("handler panic: %v", res.panicVal))
		return
	}

	if res.err != nil {
		s.pool.Release(wk, req.tenant, false)
		switch {
		case s.baseCtx.Err() != nil:
			s.pool.Gauges().Drains.Add(1)
			s.finish(w, req, http.StatusServiceUnavailable, obsv.ReqCanceled, "canceled by drain")
		case errors.Is(res.err, context.DeadlineExceeded):
			s.pool.Gauges().Timeouts.Add(1)
			s.finish(w, req, http.StatusGatewayTimeout, obsv.ReqTimeout, "deadline exceeded")
		case errors.Is(res.err, context.Canceled):
			s.pool.Gauges().Timeouts.Add(1)
			s.finish(w, req, 0, obsv.ReqCanceled, "client disconnected")
		default:
			// A real sort failure (e.g. overflow exhaustion with the
			// fallback disabled): clean 500, workspace already recycled.
			s.finish(w, req, http.StatusInternalServerError, obsv.ReqError, res.err.Error())
		}
		return
	}

	req.span.Attempts = res.stats.Attempts
	req.span.FallbackUsed = res.stats.FallbackUsed
	n, werr := emit(w, wk, req, res)
	req.span.BytesOut = n
	s.pool.Release(wk, req.tenant, false)
	if werr != nil {
		// The sort succeeded but the client went away mid-response; log
		// it — there is nobody left to send a status to.
		req.span.Status = http.StatusOK
		req.span.Outcome = obsv.ReqCanceled
		req.span.TotalUS = time.Since(req.started).Microseconds()
		s.trace(req.span)
		return
	}
	req.span.Status = http.StatusOK
	req.span.Outcome = obsv.ReqOK
	req.span.TotalUS = time.Since(req.started).Microseconds()
	s.trace(req.span)
}

// finish writes an error (or shed) response and logs the span. A zero
// status means the client is already gone and nothing is written.
func (s *Server) finish(w http.ResponseWriter, req *request, status int, outcome, msg string) {
	if status != 0 {
		http.Error(w, msg, status)
	}
	req.span.Status = status
	req.span.Outcome = outcome
	req.span.TotalUS = time.Since(req.started).Microseconds()
	s.trace(req.span)
}

// emitRecords streams res.out as raw 16-byte records through the
// worker's wire chunk — the success response of the record-out
// endpoints.
func emitRecords(w http.ResponseWriter, wk *Worker, _ *request, res sortResult) (int64, error) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(res.out)*rec.RecordSize))
	var written int64
	buf := wk.chunk()
	out := res.out
	for len(out) > 0 {
		n := min(len(out), len(buf)/rec.RecordSize)
		m, err := w.Write(rec.AppendRecords(buf[:0], out[:n]))
		written += int64(m)
		if err != nil {
			return written, err
		}
		out = out[n:]
	}
	return written, nil
}

// handleSemisort is POST /v1/semisort: raw 16-byte records in, the same
// records semisorted out.
func (s *Server) handleSemisort(w http.ResponseWriter, r *http.Request) {
	req, ctx, cancel := s.accept(w, r)
	if req == nil {
		return
	}
	defer cancel()
	s.sortThrough(w, r, req, ctx, emitRecords)
}

// handleReduce is POST /v1/reduce: raw records in, one record per
// distinct key out, aggregated fused on the worker (docs/AGGREGATION.md).
// The op query parameter selects the aggregation: "count" (the default;
// Value = the key's multiplicity) or "sum" (Value = the wrapping uint64
// sum of the key's record values). Any other op is a 400.
func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) {
	req, ctx, cancel := s.accept(w, r)
	if req == nil {
		return
	}
	defer cancel()
	switch op := r.URL.Query().Get("op"); op {
	case "", "count":
		req.op = "count"
	case "sum":
		req.op = "sum"
	default:
		s.finish(w, req, http.StatusBadRequest, obsv.ReqBadInput, fmt.Sprintf("unknown op %q", op))
		return
	}
	s.sortThrough(w, r, req, ctx, emitRecords)
}

// groupSummary is the POST /v1/groupby response shape.
type groupSummary struct {
	Records   int    `json:"records"`
	Groups    int    `json:"groups"`
	MaxGroup  int    `json:"max_group"`
	Attempts  int    `json:"attempts"`
	Fallback  bool   `json:"fallback,omitempty"`
	HeavyKeys int    `json:"heavy_keys"`
	Tenant    string `json:"tenant,omitempty"`
}

// handleGroupBy is POST /v1/groupby: raw records in, a JSON group-by
// summary out (group count, largest group, recovery footprint) — the
// collect-style endpoint for clients that want aggregates, not bytes.
func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	req, ctx, cancel := s.accept(w, r)
	if req == nil {
		return
	}
	defer cancel()
	s.sortThrough(w, r, req, ctx, emitGroupSummary)
}

// emitGroupSummary writes the JSON group-by summary of res.
func emitGroupSummary(w http.ResponseWriter, _ *Worker, req *request, res sortResult) (int64, error) {
	sum := groupSummary{
		Records:   len(res.out),
		Attempts:  res.stats.Attempts,
		Fallback:  res.stats.FallbackUsed,
		HeavyKeys: res.stats.HeavyKeys,
		Tenant:    req.tenant,
	}
	rec.Runs(res.out, func(start, end int) {
		sum.Groups++
		if end-start > sum.MaxGroup {
			sum.MaxGroup = end - start
		}
	})
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.Marshal(sum)
	n, err := w.Write(append(b, '\n'))
	return int64(n), err
}
