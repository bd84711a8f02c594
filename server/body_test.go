package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	semisort "repro"
	"repro/internal/obsv"
	"repro/internal/rec"
)

// memWriter is a reusable in-memory http.ResponseWriter. It supports no
// read deadline, like any ResponseWriter outside net/http's server.
type memWriter struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *memWriter) Header() http.Header { return w.hdr }
func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}
func (w *memWriter) reset() {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	clear(w.hdr)
	w.code, w.body = 0, w.body[:0]
}

// opaqueReader hides its reader's length, so a client sends it chunked.
type opaqueReader struct{ io.Reader }

// waitIdle fails t unless every worker of s is back in the pool within
// a second.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for s.pool.Gauges().Active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Active = %d, want 0", s.pool.Gauges().Active.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// serveMem runs one request through s's handler in memory.
func serveMem(s *Server, method, url string, body []byte, contentLength int64) *memWriter {
	r := httptest.NewRequest(method, url, bytes.NewReader(body))
	r.ContentLength = contentLength
	var w memWriter
	w.reset()
	s.Handler().ServeHTTP(&w, r)
	w.WriteHeader(http.StatusOK) // net/http's implicit status
	return &w
}

// TestHandlerSteadyStateAllocs drives warm workers with 1 MiB bodies on
// every sort endpoint: the bytes allocated per request must not scale
// with the body, and the latency histograms must count every request.
func TestHandlerSteadyStateAllocs(t *testing.T) {
	s := New(Config{PoolSize: 1})
	defer s.log.Close()
	h := s.Handler()
	body := encodeRecords(genRecords((1<<20)/rec.RecordSize, 11))
	urls := []string{"/v1/semisort", "/v1/reduce?op=sum", "/v1/groupby"}
	const warm, reps = 2, 5
	// Build every request up front so the count is the server's alone.
	var reqs []*http.Request
	for range warm + reps {
		for _, u := range urls {
			reqs = append(reqs, httptest.NewRequest(http.MethodPost, u, bytes.NewReader(body)))
		}
	}
	var w memWriter
	serve := func(r *http.Request) {
		w.reset()
		h.ServeHTTP(&w, r)
		if w.code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", r.URL, w.code, w.body)
		}
	}
	for _, r := range reqs[:warm*len(urls)] {
		serve(r)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range reqs[warm*len(urls):] {
		serve(r)
	}
	runtime.ReadMemStats(&m1)
	perReq := (m1.TotalAlloc - m0.TotalAlloc) / uint64(reps*len(urls))
	t.Logf("%d B allocated per 1 MiB request", perReq)
	if perReq >= 64<<10 {
		t.Fatalf("%d B allocated per request, want < 64 KiB", perReq)
	}

	served := int64(len(reqs))
	for name, count := range map[string]int64{
		"queue_wait": s.hist.queueWait.Summary().Count,
		"sort":       s.hist.sort.Summary().Count,
		"total":      s.hist.total.Summary().Count,
	} {
		if count != served {
			t.Errorf("%s histogram counts %d requests, served %d", name, count, served)
		}
	}
}

// appendWire is the wire encoding written field by field, independent of
// the rec codec under test.
func appendWire(dst []byte, recs []semisort.Record) []byte {
	for _, r := range recs {
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		dst = binary.LittleEndian.AppendUint64(dst, r.Value)
	}
	return dst
}

// TestResponsesMatchDirectSorts checks every endpoint's response bytes
// against the same call made directly on a fresh Sorter and encoded
// field by field — what the server wrote before it streamed bodies.
func TestResponsesMatchDirectSorts(t *testing.T) {
	cfg := semisort.Config{Procs: 1, Seed: 3}
	s := New(Config{PoolSize: 1, Semisort: cfg})
	defer s.log.Close()
	for i, n := range []int{0, 1, 4095, 4096, 4097, 70_000} {
		in := genRecords(n, uint64(20+i))
		body := appendWire(nil, in)

		direct := func(f func(*semisort.Sorter, *semisort.Config) ([]semisort.Record, semisort.Stats, error)) ([]semisort.Record, semisort.Stats) {
			c := cfg
			out, st, err := f(semisort.NewSorter(&c), &c)
			if err != nil {
				t.Fatal(err)
			}
			return out, st
		}
		sorted, st := direct(func(so *semisort.Sorter, c *semisort.Config) ([]semisort.Record, semisort.Stats, error) {
			return so.SortConfigShared(in, c)
		})
		counted, _ := direct(func(so *semisort.Sorter, c *semisort.Config) ([]semisort.Record, semisort.Stats, error) {
			return so.HistogramConfigShared(in, c)
		})
		summed, _ := direct(func(so *semisort.Sorter, c *semisort.Config) ([]semisort.Record, semisort.Stats, error) {
			return so.ReduceConfigShared(in, sumReducer, c)
		})
		sum := groupSummary{Records: len(sorted), Attempts: st.Attempts, Fallback: st.FallbackUsed, HeavyKeys: st.HeavyKeys}
		rec.Runs(sorted, func(start, end int) {
			sum.Groups++
			sum.MaxGroup = max(sum.MaxGroup, end-start)
		})
		summary, _ := json.Marshal(sum)

		for _, tc := range []struct {
			url  string
			want []byte
		}{
			{"/v1/semisort", appendWire(nil, sorted)},
			{"/v1/reduce", appendWire(nil, counted)},
			{"/v1/reduce?op=sum", appendWire(nil, summed)},
			{"/v1/groupby", append(summary, '\n')},
		} {
			w := serveMem(s, http.MethodPost, tc.url, body, int64(len(body)))
			if w.code != http.StatusOK || !bytes.Equal(w.body, tc.want) {
				t.Fatalf("n=%d %s: status %d, %d response bytes differ from the direct call's %d",
					n, tc.url, w.code, len(w.body), len(tc.want))
			}
		}
	}
}

// TestBodyContentLengthMismatch feeds in-memory bodies that disagree
// with their declared Content-Length: both are refused with 400.
func TestBodyContentLengthMismatch(t *testing.T) {
	s := New(Config{PoolSize: 1})
	defer s.log.Close()
	body := encodeRecords(genRecords(1000, 1))
	for _, tc := range []struct {
		name string
		cl   int64
	}{
		{"shorter", int64(len(body)) + rec.RecordSize},
		{"longer", int64(len(body)) - rec.RecordSize},
	} {
		w := serveMem(s, http.MethodPost, "/v1/semisort", body, tc.cl)
		if w.code != http.StatusBadRequest {
			t.Errorf("body %s than its Content-Length: status %d (%s), want 400", tc.name, w.code, w.body)
		}
		waitIdle(t, s)
	}
	// The same body with its true length, and with none, is served.
	for _, cl := range []int64{int64(len(body)), -1} {
		if w := serveMem(s, http.MethodPost, "/v1/semisort", body, cl); w.code != http.StatusOK {
			t.Errorf("Content-Length %d: status %d (%s), want 200", cl, w.code, w.body)
		}
	}
	waitIdle(t, s)
}

// TestChunkedBodies sends bodies without a Content-Length over a real
// connection: a whole one is served byte-identically to the same body
// sent with its length; a torn trailing record is caught at the end of
// the stream (400) and an oversize one while it streams (413).
func TestChunkedBodies(t *testing.T) {
	s := New(Config{PoolSize: 1, MaxRequestBytes: 64 << 10})
	var lastLength atomic.Int64 // the Content-Length the last request reached the handler with
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastLength.Store(r.ContentLength)
		h.ServeHTTP(w, r)
	}))
	defer s.log.Close()
	defer ts.Close()
	body := encodeRecords(genRecords(2000, 9))

	post := func(b []byte, chunked bool) (int, []byte) {
		t.Helper()
		var r io.Reader = bytes.NewReader(b)
		if chunked {
			r = opaqueReader{r}
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/semisort", r)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if cl := lastLength.Load(); chunked != (cl == -1) {
			t.Fatalf("chunked=%v request reached the handler with Content-Length %d", chunked, cl)
		}
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}

	code, want := post(body, false)
	if code != http.StatusOK {
		t.Fatalf("sized body: status %d", code)
	}
	code, got := post(body, true)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("chunked body: status %d, response differs from the sized one: %v", code, !bytes.Equal(got, want))
	}
	waitIdle(t, s)

	torn := append(append([]byte(nil), body...), 1, 2, 3, 4, 5)
	if code, msg := post(torn, true); code != http.StatusBadRequest || !strings.Contains(string(msg), "torn") {
		t.Fatalf("torn chunked body: status %d (%s), want 400", code, msg)
	}
	waitIdle(t, s)

	if code, msg := post(make([]byte, 128<<10), true); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize chunked body: status %d (%s), want 413", code, msg)
	}
	waitIdle(t, s)
	if st := s.pool.Gauges().Admissions.Load(); st != 4 {
		t.Fatalf("Admissions = %d, want 4 (chunked bodies are read after admission)", st)
	}
}

// TestRefusedBeforeRead checks that the Content-Length checks answer
// without admission: the pool admits nothing and the spans report no
// body bytes read.
func TestRefusedBeforeRead(t *testing.T) {
	var spans bytes.Buffer
	s := New(Config{PoolSize: 1, MaxRequestBytes: 1024, Trace: &spans})
	defer s.log.Close()
	for _, tc := range []struct {
		n    int
		want int
	}{
		{2048, http.StatusRequestEntityTooLarge},
		{100, http.StatusBadRequest},
	} {
		w := serveMem(s, http.MethodPost, "/v1/semisort", make([]byte, tc.n), int64(tc.n))
		if w.code != tc.want {
			t.Fatalf("%d-byte body: status %d, want %d", tc.n, w.code, tc.want)
		}
	}
	if w := serveMem(s, http.MethodPost, "/v1/reduce?op=median", make([]byte, 32), 32); w.code != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400", w.code)
	}
	if a := s.pool.Gauges().Admissions.Load(); a != 0 {
		t.Fatalf("Admissions = %d, want 0", a)
	}
	dec := json.NewDecoder(&spans)
	for dec.More() {
		var sp struct {
			Records int   `json:"records"`
			BytesIn int64 `json:"bytes_in"`
		}
		if err := dec.Decode(&sp); err != nil {
			t.Fatal(err)
		}
		if sp.Records != 0 || sp.BytesIn != 0 {
			t.Fatalf("refused request span reports records=%d bytes_in=%d, want 0", sp.Records, sp.BytesIn)
		}
	}
}

// TestStalledBodyFreesWorker holds a body open past timeout_ms: the
// request deadline bounds the read, the client gets 504 and the worker
// returns to the pool long before the server's own request timeout.
func TestStalledBodyFreesWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1})
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/semisort?timeout_ms=50", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = 1600
	go func() {
		pw.Write(make([]byte, 160)) // ten records, then silence
	}()
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled body: status %d, want 504", resp.StatusCode)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("stalled body answered after %v", d)
	}
	waitIdle(t, s)
	if g := s.pool.Gauges().Timeouts.Load(); g != 1 {
		t.Fatalf("Timeouts = %d, want 1", g)
	}
}

// TestClientGoneMidBody hangs up after part of a declared body: the read
// fails, nothing is answered, and the worker is released.
func TestClientGoneMidBody(t *testing.T) {
	var spans bytes.Buffer
	s := New(Config{PoolSize: 1, Trace: &spans})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.log.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /v1/semisort HTTP/1.1\r\nHost: x\r\nContent-Length: 1600\r\n\r\n")
	conn.Write(make([]byte, 800))
	conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.Gauges().Admissions.Load() == 0 || s.pool.Gauges().Active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker not released: admissions %d, active %d",
				s.pool.Gauges().Admissions.Load(), s.pool.Gauges().Active.Load())
		}
		time.Sleep(time.Millisecond)
	}
	ts.Close()
	s.log.Close()
	if !strings.Contains(spans.String(), `"outcome":"canceled"`) {
		t.Fatalf("span does not record a canceled request: %s", spans.String())
	}
}

// TestStatsLatencyHistograms checks the /v1/stats latency fields count
// the requests served.
func TestStatsLatencyHistograms(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1})
	in := encodeRecords(genRecords(5000, 2))
	const n = 4
	for range n {
		resp := postRecords(t, ts.URL+"/v1/semisort", in, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsPayload
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]obsv.LatencySummary{
		"queue_wait": st.LatencyUS.QueueWait,
		"sort":       st.LatencyUS.Sort,
		"total":      st.LatencyUS.Total,
	} {
		if h.Count != n {
			t.Errorf("%s count = %d, want %d", name, h.Count, n)
		}
		if h.P50 > h.P99 || h.P99 > h.P999 {
			t.Errorf("%s quantiles out of order: %+v", name, h)
		}
	}
	if st.LatencyUS.Total.P50 == 0 {
		t.Error("total p50 is 0 us for 5000-record sorts")
	}
}
