// Command soaksemi is the leak-gated soak harness for semisortd: it
// drives mixed-distribution semisort traffic (uniform, Zipfian,
// exponential and a HeavyHead adversary with 64 heavy keys) at a
// configured duration/concurrency/rps against the resident server, sends
// SIGTERM mid-run to exercise graceful drain, and turns "no leaks under
// churn" into a pass/fail property:
//
//   - p99 latency of successful requests must stay under -p99, and
//     p999 under -p999 once at least 10,000 requests succeeded (so at
//     least 10 samples lie beyond it; below that the gate reports "not
//     evaluated");
//   - zero in-flight requests may be dropped without a response
//     (load shedding via 503 is fine — a 503 IS a response);
//   - per-tenant retained scratch must respect its budget;
//   - the goroutine count must return to baseline after the drain.
//
// By default the server runs in-process on a loopback listener so the
// harness can signal it and measure its goroutines; point -addr at a
// running semisortd to soak an external instance instead (the signal and
// goroutine gates are then skipped).
//
//	soaksemi -duration 60s -concurrency 8 -pool 4 -rps 300 -report SOAK_semisort.json
//
// The JSON report is written for CI artifact upload; the process exits
// nonzero if any gate fails.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	semisort "repro"
	"repro/internal/distgen"
	"repro/internal/rec"
	"repro/server"
)

type options struct {
	addr        string
	duration    time.Duration
	concurrency int
	rps         float64
	batch       int
	tenants     int
	pool        int
	queue       int
	reqTimeout  time.Duration
	drainAt     float64
	drainWait   time.Duration
	budget      int64
	p99Limit    time.Duration
	p999Limit   time.Duration
	gorSlack    int
	report      string
	seed        uint64
}

func main() {
	var o options
	var budget float64
	flag.StringVar(&o.addr, "addr", "", "soak an external semisortd at this address (default: in-process server)")
	flag.DurationVar(&o.duration, "duration", 60*time.Second, "total soak duration")
	flag.IntVar(&o.concurrency, "concurrency", 8, "client workers")
	flag.Float64Var(&o.rps, "rps", 0, "aggregate requests per second (0 = unpaced)")
	flag.IntVar(&o.batch, "batch", 4096, "base records per request (sizes rotate x0.5/x1/x2)")
	flag.IntVar(&o.tenants, "tenants", 3, "distinct tenant ids")
	flag.IntVar(&o.pool, "pool", 4, "in-process server pool size")
	flag.IntVar(&o.queue, "queue", 0, "in-process admission queue bound (0 = 4x pool)")
	flag.DurationVar(&o.reqTimeout, "request-timeout", 10*time.Second, "per-request deadline")
	flag.Float64Var(&o.drainAt, "drain-at", 0.85, "fraction of -duration at which SIGTERM is sent (in-process only)")
	flag.DurationVar(&o.drainWait, "drain-wait", 30*time.Second, "how long to wait for the drain to finish")
	flag.Float64Var(&budget, "tenant-budget", 64e6, "per-tenant retained-bytes budget for the in-process server")
	flag.DurationVar(&o.p99Limit, "p99", 2*time.Second, "gate: p99 latency bound for successful requests")
	flag.DurationVar(&o.p999Limit, "p999", 4*time.Second, "gate: p999 latency bound for successful requests (evaluated from 10,000 successes)")
	flag.IntVar(&o.gorSlack, "goroutine-slack", 12, "gate: allowed goroutines above baseline after drain")
	flag.StringVar(&o.report, "report", "SOAK_semisort.json", "write the JSON soak report here ('' = off)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Parse()
	o.budget = int64(budget)

	code := run(o)
	os.Exit(code)
}

// outcome classes for the drop accounting.
const (
	outOK      = "ok"      // 200
	outShed    = "shed"    // 503 (admission or drain) — a clean response
	outTimeout = "timeout" // 504
	outErr     = "error"   // other HTTP status (400/413/500)
	outRefused = "refused" // connect error: the request never reached the server
	outDropped = "dropped" // accepted connection broken without a response
)

type sample struct {
	start   time.Time
	latency time.Duration
	outcome string
	status  int
}

type workerStats struct {
	samples []sample
}

func run(o options) int {
	inProcess := o.addr == ""
	runtime.GC()
	baselineGoroutines := runtime.NumGoroutine()

	var srv *server.Server
	var drained <-chan error
	var stopSignals func()
	base := o.addr
	if inProcess {
		srv = server.New(server.Config{
			PoolSize:            o.pool,
			MaxQueue:            o.queue,
			RequestTimeout:      o.reqTimeout,
			DrainTimeout:        o.drainWait,
			DefaultTenantBudget: o.budget,
			Semisort:            semisort.Config{},
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("listen: %v", err)
		}
		go srv.Serve(ln)
		drained, stopSignals = srv.HandleSignals(syscall.SIGTERM)
		defer stopSignals()
		base = ln.Addr().String()
	}
	baseURL := "http://" + strings.TrimPrefix(base, "http://")

	client := &http.Client{Timeout: o.reqTimeout + 5*time.Second}
	fmt.Fprintf(os.Stderr, "soaksemi: target %s, %v at concurrency %d (rps %g, batch %d, tenants %d)\n",
		baseURL, o.duration, o.concurrency, o.rps, o.batch, o.tenants)

	// Pre-generate the workload: one record set per (distribution, size)
	// cell, sliced per request, so generation cost stays off the
	// latency path.
	workload := buildWorkload(o.seed, o.batch)

	var (
		issued       atomic.Int64
		drainStarted atomic.Int64 // unix nanos; 0 = not yet
		stopIssuing  atomic.Bool
	)
	start := time.Now()
	stats := make([]workerStats, o.concurrency)
	var wg sync.WaitGroup
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stopIssuing.Load() {
				i := issued.Add(1) - 1
				if o.rps > 0 {
					next := start.Add(time.Duration(float64(i) / o.rps * float64(time.Second)))
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					if stopIssuing.Load() {
						return
					}
				}
				s := doRequest(client, baseURL, workload, i, o)
				if s.outcome == outRefused || s.outcome == outDropped {
					// The server is draining or gone; don't spin.
					time.Sleep(5 * time.Millisecond)
				}
				stats[w].samples = append(stats[w].samples, s)
			}
		}(w)
	}

	// Snapshot server stats shortly before the drain (the budget gate
	// needs a pre-shutdown view), then SIGTERM mid-run.
	var preDrain *statsView
	drainErr := error(nil)
	if inProcess {
		time.Sleep(time.Duration(o.drainAt * float64(o.duration)))
		preDrain = fetchStats(client, baseURL)
		drainStarted.Store(time.Now().UnixNano())
		fmt.Fprintf(os.Stderr, "soaksemi: sending SIGTERM at %v\n", time.Since(start).Round(time.Millisecond))
		p, _ := os.FindProcess(os.Getpid())
		if err := p.Signal(syscall.SIGTERM); err != nil {
			fatalf("self-SIGTERM: %v", err)
		}
		select {
		case drainErr = <-drained:
		case <-time.After(o.drainWait + 10*time.Second):
			drainErr = errors.New("drain did not complete in time")
		}
		stopIssuing.Store(true)
	} else {
		time.Sleep(o.duration)
		preDrain = fetchStats(client, baseURL)
		stopIssuing.Store(true)
	}
	wg.Wait()
	client.CloseIdleConnections()
	if stopSignals != nil {
		stopSignals()
	}

	rep := buildReport(o, start, stats, preDrain, drainStarted.Load(), drainErr,
		baselineGoroutines, inProcess)
	printReport(os.Stderr, rep)
	if o.report != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(o.report, append(b, '\n'), 0o644); err != nil {
			fatalf("write report: %v", err)
		}
		fmt.Fprintf(os.Stderr, "soaksemi: report written to %s\n", o.report)
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

// workload is a set of pre-generated record arrays; request i draws a
// deterministic slice from cell i%len.
type workload struct {
	cells [][]semisort.Record
	sizes []int
}

func buildWorkload(seed uint64, batch int) *workload {
	specs := []distgen.Spec{
		{Kind: distgen.Uniform, Param: 1e6},
		{Kind: distgen.Zipfian, Param: 1e4},
		{Kind: distgen.Exponential, Param: 1e3},
		{Kind: distgen.HeavyHead, Param: 64},
	}
	sizes := []int{batch / 2, batch, 2 * batch}
	w := &workload{}
	for ci, spec := range specs {
		for si, size := range sizes {
			if size < 1 {
				size = 1
			}
			// Generate 4 batches worth per cell; requests rotate offsets.
			recs := distgen.Generate(0, 4*size, spec, seed+uint64(ci*3+si))
			w.cells = append(w.cells, recs)
			w.sizes = append(w.sizes, size)
		}
	}
	return w
}

func (w *workload) body(i int64) []byte {
	cell := int(i) % len(w.cells)
	size := w.sizes[cell]
	recs := w.cells[cell]
	off := (int(i/int64(len(w.cells))) % 4) * size
	return rec.AppendRecords(nil, recs[off:off+size])
}

func doRequest(client *http.Client, baseURL string, w *workload, i int64, o options) sample {
	body := w.body(i)
	tenant := fmt.Sprintf("tenant-%d", int(i)%o.tenants)
	path := "/v1/semisort"
	if i%7 == 3 {
		path = "/v1/groupby" // mix in the JSON endpoint
	}
	req, err := http.NewRequest("POST", baseURL+path, bytes.NewReader(body))
	if err != nil {
		fatalf("build request: %v", err)
	}
	req.Header.Set("X-Semisort-Tenant", tenant)
	// Semisort requests are idempotent; marking them replayable lets the
	// transport retry the POST on a fresh connection when it races a
	// keep-alive close during drain (the retry then sees a clean dial
	// refusal instead of a spurious mid-write reset).
	req.Header.Set("Idempotency-Key", fmt.Sprintf("soak-%d", i))
	s := sample{start: time.Now()}
	resp, err := client.Do(req)
	s.latency = time.Since(s.start)
	if err != nil {
		if isConnectError(err) {
			s.outcome = outRefused
		} else {
			s.outcome = outDropped
		}
		return s
	}
	defer resp.Body.Close()
	n, rerr := io.Copy(io.Discard, resp.Body)
	s.latency = time.Since(s.start)
	s.status = resp.StatusCode
	switch {
	case rerr != nil:
		s.outcome = outDropped // response truncated mid-body
	case resp.StatusCode == http.StatusOK:
		s.outcome = outOK
		if resp.Header.Get("Content-Type") == "application/octet-stream" && n != int64(len(body)) {
			// A semisort response must echo exactly the input size.
			s.outcome = outErr
		}
	case resp.StatusCode == http.StatusServiceUnavailable:
		s.outcome = outShed
	case resp.StatusCode == http.StatusGatewayTimeout:
		s.outcome = outTimeout
	default:
		s.outcome = outErr
	}
	return s
}

// isConnectError reports whether the request failed before reaching the
// server (dial refused/reset): such requests were never in flight
// server-side, so they shed cleanly rather than count as drops.
func isConnectError(err error) bool {
	var opErr *net.OpError
	if errors.As(err, &opErr) && opErr.Op == "dial" {
		return true
	}
	return strings.Contains(err.Error(), "connection refused")
}

// statsView is the subset of the server's /v1/stats payload the gates
// read.
type statsView struct {
	Pool struct {
		QueueDepth    int64 `json:"queue_depth"`
		Admissions    int64 `json:"admissions"`
		Rejections    int64 `json:"rejections"`
		Timeouts      int64 `json:"timeouts"`
		Panics        int64 `json:"panics"`
		Discards      int64 `json:"discards"`
		Drains        int64 `json:"drains"`
		RetainedBytes int64 `json:"retained_bytes"`
	} `json:"pool"`
	Tenants map[string]struct {
		RetainedBytes int64 `json:"retained_bytes"`
		BudgetBytes   int64 `json:"budget_bytes"`
	} `json:"tenants"`
	Log struct {
		Drops int64 `json:"drops"`
	} `json:"log"`
	Goroutines int `json:"goroutines"`
}

func fetchStats(client *http.Client, baseURL string) *statsView {
	resp, err := client.Get(baseURL + "/v1/stats")
	if err != nil {
		fmt.Fprintf(os.Stderr, "soaksemi: stats fetch failed: %v\n", err)
		return nil
	}
	defer resp.Body.Close()
	var v statsView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		fmt.Fprintf(os.Stderr, "soaksemi: stats decode failed: %v\n", err)
		return nil
	}
	return &v
}

// p999MinSamples is the least number of successful requests the p999
// gate needs: at 10,000, at least 10 samples lie beyond the p999.
const p999MinSamples = 10_000

// gate is one pass/fail criterion in the report.
type gate struct {
	Pass   bool   `json:"pass"`
	Value  int64  `json:"value"`
	Limit  int64  `json:"limit"`
	Detail string `json:"detail,omitempty"`
}

type report struct {
	Target      string           `json:"target"`
	DurationS   float64          `json:"duration_s"`
	Concurrency int              `json:"concurrency"`
	RPS         float64          `json:"rps_configured"`
	Requests    map[string]int64 `json:"requests"`
	Throughput  float64          `json:"requests_per_s"`
	LatencyUS   map[string]int64 `json:"latency_us"`
	Gates       map[string]gate  `json:"gates"`
	Stats       *statsView       `json:"server_stats,omitempty"`
	DrainError  string           `json:"drain_error,omitempty"`
	Pass        bool             `json:"pass"`
}

func buildReport(o options, start time.Time, stats []workerStats, sv *statsView,
	drainNanos int64, drainErr error, baselineGoroutines int, inProcess bool) *report {

	rep := &report{
		Target:      o.addr,
		DurationS:   time.Since(start).Seconds(),
		Concurrency: o.concurrency,
		RPS:         o.rps,
		Requests:    map[string]int64{},
		LatencyUS:   map[string]int64{},
		Gates:       map[string]gate{},
		Stats:       sv,
	}
	if rep.Target == "" {
		rep.Target = "in-process"
	}

	var okLatencies []time.Duration
	var dropped int64
	for _, ws := range stats {
		for _, s := range ws.samples {
			rep.Requests[s.outcome]++
			if s.outcome == outOK {
				okLatencies = append(okLatencies, s.latency)
			}
			if s.outcome == outDropped {
				// Only requests started before the drain began count
				// against the zero-drop gate; a request racing the
				// listener teardown is shedding, not dropping.
				if drainNanos == 0 || s.start.UnixNano() < drainNanos {
					dropped++
				} else {
					rep.Requests[s.outcome]--
					rep.Requests[outRefused]++
				}
			}
		}
	}
	var total int64
	for _, c := range rep.Requests {
		total += c
	}
	rep.Requests["total"] = total
	rep.Throughput = float64(total) / rep.DurationS

	sort.Slice(okLatencies, func(i, j int) bool { return okLatencies[i] < okLatencies[j] })
	pct := func(p float64) time.Duration {
		if len(okLatencies) == 0 {
			return 0
		}
		idx := int(p * float64(len(okLatencies)-1))
		return okLatencies[idx]
	}
	p99, p999 := pct(0.99), pct(0.999)
	rep.LatencyUS["p50"] = pct(0.50).Microseconds()
	rep.LatencyUS["p90"] = pct(0.90).Microseconds()
	rep.LatencyUS["p99"] = p99.Microseconds()
	rep.LatencyUS["p999"] = p999.Microseconds()
	if len(okLatencies) > 0 {
		rep.LatencyUS["max"] = okLatencies[len(okLatencies)-1].Microseconds()
	}

	// Gate: some traffic actually succeeded.
	rep.Gates["served"] = gate{Pass: rep.Requests[outOK] > 0, Value: rep.Requests[outOK], Limit: 1,
		Detail: "successful requests (gate: >= 1)"}
	// Gate: p99 latency.
	rep.Gates["p99_latency"] = gate{Pass: p99 <= o.p99Limit && len(okLatencies) > 0,
		Value: p99.Microseconds(), Limit: o.p99Limit.Microseconds(),
		Detail: "p99 of successful requests, microseconds"}
	// Gate: p999 latency, once enough successes put 10 samples past it.
	p999Gate := gate{Pass: p999 <= o.p999Limit, Value: p999.Microseconds(), Limit: o.p999Limit.Microseconds(),
		Detail: "p999 of successful requests, microseconds"}
	if n := len(okLatencies); n < p999MinSamples {
		p999Gate.Pass = true
		p999Gate.Detail = fmt.Sprintf("not evaluated: %d successful requests, need %d", n, p999MinSamples)
	}
	rep.Gates["p999_latency"] = p999Gate
	// Gate: zero dropped in-flight requests.
	rep.Gates["zero_dropped"] = gate{Pass: dropped == 0, Value: dropped, Limit: 0,
		Detail: "in-flight requests that got no response"}
	// Gate: per-tenant retained bytes respect budgets.
	tenantGate := gate{Pass: true, Detail: "max tenant retained vs its budget"}
	if sv != nil {
		for t, ts := range sv.Tenants {
			if ts.RetainedBytes > tenantGate.Value {
				tenantGate.Value, tenantGate.Limit = ts.RetainedBytes, ts.BudgetBytes
			}
			if ts.BudgetBytes > 0 && ts.RetainedBytes > ts.BudgetBytes {
				tenantGate.Pass = false
				tenantGate.Detail = fmt.Sprintf("tenant %s retains %d > budget %d", t, ts.RetainedBytes, ts.BudgetBytes)
			}
		}
	}
	rep.Gates["tenant_budget"] = tenantGate

	if inProcess {
		// Gate: drain completed cleanly.
		dg := gate{Pass: drainErr == nil, Detail: "graceful drain on SIGTERM"}
		if drainErr != nil {
			rep.DrainError = drainErr.Error()
			dg.Detail = drainErr.Error()
		}
		rep.Gates["drain"] = dg

		// Gate: goroutines return to baseline after drain (leak check).
		// Settle: GC and give lingering net/http conns time to unwind.
		deadline := time.Now().Add(10 * time.Second)
		gor := runtime.NumGoroutine()
		for gor > baselineGoroutines+o.gorSlack && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(100 * time.Millisecond)
			gor = runtime.NumGoroutine()
		}
		rep.Gates["goroutines"] = gate{
			Pass:   gor <= baselineGoroutines+o.gorSlack,
			Value:  int64(gor),
			Limit:  int64(baselineGoroutines + o.gorSlack),
			Detail: fmt.Sprintf("goroutines after drain (baseline %d + slack %d)", baselineGoroutines, o.gorSlack),
		}
	}

	rep.Pass = true
	for _, g := range rep.Gates {
		if !g.Pass {
			rep.Pass = false
		}
	}
	return rep
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "soaksemi: %s — %.1fs, %.0f req/s\n", rep.Target, rep.DurationS, rep.Throughput)
	fmt.Fprintf(w, "  requests: ok=%d shed=%d timeout=%d error=%d refused=%d dropped=%d\n",
		rep.Requests[outOK], rep.Requests[outShed], rep.Requests[outTimeout],
		rep.Requests[outErr], rep.Requests[outRefused], rep.Requests[outDropped])
	fmt.Fprintf(w, "  latency:  p50=%s p90=%s p99=%s p999=%s max=%s\n",
		usDur(rep.LatencyUS["p50"]), usDur(rep.LatencyUS["p90"]),
		usDur(rep.LatencyUS["p99"]), usDur(rep.LatencyUS["p999"]), usDur(rep.LatencyUS["max"]))
	names := make([]string, 0, len(rep.Gates))
	for n := range rep.Gates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := rep.Gates[n]
		mark := "PASS"
		if !g.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  gate %-14s %s  value=%d limit=%d  %s\n", n, mark, g.Value, g.Limit, g.Detail)
	}
	if rep.Pass {
		fmt.Fprintln(w, "soaksemi: PASS")
	} else {
		fmt.Fprintln(w, "soaksemi: FAIL")
	}
}

func usDur(us int64) time.Duration { return time.Duration(us) * time.Microsecond }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "soaksemi: "+format+"\n", args...)
	os.Exit(2)
}
