package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/rec"
)

func TestTailIndexLeavesTenBeyond(t *testing.T) {
	for n := minBeyond + 1; n <= 5000; n++ {
		i := tailIndex(n)
		if beyond := n - 1 - i; beyond < minBeyond {
			t.Fatalf("n=%d: index %d leaves %d samples beyond, want >= %d", n, i, beyond, minBeyond)
		}
		if p := tailPercentile(n); p > tailCap+100.0/float64(n) {
			t.Fatalf("n=%d: tail percentile %.2f above the p%d cap", n, p, tailCap)
		}
		// Highest such percentile: the next rank up is either past the
		// cap or leaves fewer than minBeyond beyond it.
		if i+1 <= rankIndex(n, tailCap) && n-1-(i+1) >= minBeyond {
			t.Fatalf("n=%d: index %d is not the highest qualifying rank", n, i)
		}
	}
}

func TestTailExamples(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // percentile
	}{
		{1, 100}, {10, 100}, // too few samples: the maximum stands in
		{20, 50}, {100, 90}, {1000, 99}, {20000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeNormalizes(t *testing.T) {
	ms := time.Millisecond
	ss := []sample{
		{op: 10 * ms, floor: 1 * ms, recs: 100},
		{op: 30 * ms, floor: 2 * ms, recs: 100},
	}
	s := summarize(ss)
	if s.P50X != 12.5 { // median of 10x and 15x
		t.Errorf("P50X = %v, want 12.5", s.P50X)
	}
	if want := 3.0 / 40; s.ThroughputX != want { // Σfloor/Σop
		t.Errorf("ThroughputX = %v, want %v", s.ThroughputX, want)
	}
	if s.TailX != 15 || s.TailPct != 100 {
		t.Errorf("tail = p%v %v, want p100 15", s.TailPct, s.TailX)
	}
	if want := 200 / 0.040 / 1e6; s.MRecPerS != want {
		t.Errorf("MRecPerS = %v, want %v", s.MRecPerS, want)
	}
}

// A host that slows everything by the same factor moves the raw figures
// but not the normalized ones.
func TestNormalizationCancelsDrift(t *testing.T) {
	var base, slow []sample
	for i := range 200 {
		op := time.Duration(50+i%17) * time.Millisecond
		fl := time.Duration(1+i%3) * time.Millisecond
		base = append(base, sample{op: op, floor: fl, recs: 1000})
		slow = append(slow, sample{op: op * 7 / 5, floor: fl * 7 / 5, recs: 1000})
	}
	a, b := summarize(base), summarize(slow)
	near := func(x, y float64) bool { return x/y > 1-1e-9 && x/y < 1+1e-9 }
	if !near(a.P50X, b.P50X) || !near(a.TailX, b.TailX) || !near(a.ThroughputX, b.ThroughputX) {
		t.Errorf("normalized metrics moved with drift: %+v vs %+v", a, b)
	}
	if near(a.P50Ms, b.P50Ms) {
		t.Errorf("raw p50 did not move with drift: %v vs %v", a.P50Ms, b.P50Ms)
	}
}

// semisorted returns a small semisorted output and its input's multiset.
func semisorted() ([]rec.Record, multiset) {
	out := []rec.Record{{Key: 7, Value: 0}, {Key: 7, Value: 3}, {Key: 2, Value: 1}, {Key: ^uint64(0), Value: 2}, {Key: 9, Value: 4}}
	return out, multisetOf(out)
}

func TestCheckSemisortedRejectsCorruption(t *testing.T) {
	var set keySet
	out, want := semisorted()
	if err := checkSemisorted(out, want, &set); err != nil {
		t.Fatalf("valid output rejected: %v", err)
	}
	for name, corrupt := range map[string]func([]rec.Record) []rec.Record{
		"split run":     func(a []rec.Record) []rec.Record { a[1], a[2] = a[2], a[1]; return a },
		"altered value": func(a []rec.Record) []rec.Record { a[3].Value++; return a },
		"altered key":   func(a []rec.Record) []rec.Record { a[4].Key = 8; return a },
		"lost record":   func(a []rec.Record) []rec.Record { return a[:4] },
		"duplicated":    func(a []rec.Record) []rec.Record { a[4] = a[3]; return a },
	} {
		out, want := semisorted()
		if err := checkSemisorted(corrupt(out), want, &set); err == nil {
			t.Errorf("%s: corrupted output accepted", name)
		}
	}
}

func TestCheckWordCountsRejectsCorruption(t *testing.T) {
	want := map[string]int64{"a-0": 3, "b-1": 1}
	if err := checkWordCounts(map[string]int64{"a-0": 3, "b-1": 1}, want, 4); err != nil {
		t.Fatalf("valid counts rejected: %v", err)
	}
	for name, got := range map[string]map[string]int64{
		"moved count":  {"a-0": 2, "b-1": 2},
		"missing word": {"a-0": 4},
		"extra word":   {"a-0": 3, "b-1": 1, "c-2": 0},
		"short total":  {"a-0": 3, "b-1": 0},
	} {
		if err := checkWordCounts(got, want, 4); err == nil {
			t.Errorf("%s: corrupted counts accepted", name)
		}
	}
}

func TestCheckResponseRejectsCorruption(t *testing.T) {
	recs := []rec.Record{{Key: 5, Value: 1}, {Key: 3, Value: 2}, {Key: 5, Value: 4}}
	reqs := mixRequests([][]rec.Record{recs})
	good := map[string][]byte{
		pathSemisort: rec.AppendRecords(nil, []rec.Record{recs[0], recs[2], recs[1]}),
		pathGroupBy:  []byte(`{"records":3,"groups":2,"max_group":2}`),
		pathReduce:   rec.AppendRecords(nil, []rec.Record{{Key: 3, Value: 2}, {Key: 5, Value: 5}}),
	}
	bad := map[string][]byte{
		pathSemisort: rec.AppendRecords(nil, recs), // key 5 split into two runs
		pathGroupBy:  []byte(`{"records":3,"groups":3,"max_group":1}`),
		pathReduce:   rec.AppendRecords(nil, []rec.Record{{Key: 3, Value: 2}, {Key: 5, Value: 4}}),
	}
	var set keySet
	for _, r := range reqs {
		p := r.want.Path
		if _, err := checkResponse(http.StatusOK, good[p], r.want, nil, &set); err != nil {
			t.Errorf("%s: valid response rejected: %v", p, err)
		}
		if _, err := checkResponse(http.StatusOK, bad[p], r.want, nil, &set); err == nil {
			t.Errorf("%s: corrupted response accepted", p)
		}
		if _, err := checkResponse(http.StatusServiceUnavailable, good[p], r.want, nil, &set); err == nil {
			t.Errorf("%s: 503 accepted", p)
		}
		if p != pathGroupBy {
			truncated := good[p][:len(good[p])-1]
			if _, err := checkResponse(http.StatusOK, truncated, r.want, nil, &set); err == nil {
				t.Errorf("%s: truncated body accepted", p)
			}
		}
	}
}

func TestCheckShuffleRejectsCorruption(t *testing.T) {
	want := shuffleCounts{Records: 100, Groups: 7}
	if err := checkShuffle(want, want); err != nil {
		t.Fatalf("matching counts rejected: %v", err)
	}
	for _, got := range []shuffleCounts{{Records: 99, Groups: 7}, {Records: 100, Groups: 8}} {
		if err := checkShuffle(got, want); err == nil {
			t.Errorf("%+v accepted against %+v", got, want)
		}
	}
}

func TestSameHostRefusesDifferentHosts(t *testing.T) {
	a := host{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CPUModel: "cpu", MemmoveGBps: 8}
	b := a
	b.MemmoveGBps = 9 // within tolerance
	if err := sameHost(a, b); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	for name, change := range map[string]func(*host){
		"nproc":      func(h *host) { h.NProc = 4 },
		"gomaxprocs": func(h *host) { h.GOMAXPROCS = 1 },
		"go":         func(h *host) { h.GoVersion = "go1.23.0" },
		"cpu":        func(h *host) { h.CPUModel = "other" },
		"memmove":    func(h *host) { h.MemmoveGBps = 4 },
	} {
		c := a
		change(&c)
		if err := sameHost(a, c); err == nil {
			t.Errorf("%s: different host accepted", name)
		}
	}
}

func TestWordCountInputs(t *testing.T) {
	vocab := makeVocabulary(3, 1000)
	seen := map[string]bool{}
	for _, w := range vocab {
		if seen[w] || !strings.Contains(w, "-") {
			t.Fatalf("bad or duplicate word %q", w)
		}
		seen[w] = true
	}
	a, b := zipfRanks(3, 5000, 1000), zipfRanks(3, 5000, 1000)
	hits := make([]int, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("zipfRanks is not deterministic in its seed")
		}
		hits[a[i]]++
	}
	if hits[0] < 2*hits[1]*3/4 || hits[0] < 10*hits[99] {
		t.Errorf("ranks not Zipf-shaped: rank0 %d rank1 %d rank99 %d", hits[0], hits[1], hits[99])
	}
}

func TestResultRoundTrip(t *testing.T) {
	r := result{Workload: "w", Host: host{NProc: 2}, Metrics: map[string]metric{"x": {1.5, "x"}}}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(b, &back); err != nil || back.Metrics["x"] != r.Metrics["x"] || back.Host != r.Host {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
}
