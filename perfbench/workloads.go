package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"time"

	semisort "repro"
	"repro/external"
	"repro/internal/distgen"
	"repro/internal/hash"
	"repro/internal/rec"
	"repro/server"
)

const (
	// procs is the worker count of every batch sort: the host's two cores.
	procs = 2
	// cfgSeed is the fixed Config.Seed of every sort.
	cfgSeed = 1
)

// A runner is one workload's set-up state. Client c's operations run as
// prepare (untimed: stage the next input), run (the timed call into the
// program) and check (untimed: verify run's output).
type runner interface {
	clients() int
	// floorBytes is the size of each client's memmove floor buffers.
	floorBytes() int
	// prepare stages client c's next operation and reports the records it
	// will complete and the input bytes its floor copies.
	prepare(c int) (recs, bytes int)
	run(c int) error
	check(c int) error
	// layers returns the workload's input as the layer probes consume it.
	layers() layerInput
	close() error
}

// layerInput is a workload's input in the forms the per-layer probes call
// the program with.
type layerInput struct {
	// recs is the input in record form (pre-hashed keys).
	recs []rec.Record
	// procs is the worker count the workload's sorts run with.
	procs int
	// requests are the service requests the server probe sends.
	requests []request
	// coreStats runs the core calls the workload makes (or mirrors them,
	// where the workload's own calls return no Stats) and returns their
	// Stats.
	coreStats func(s *semisort.Sorter) ([]semisort.Stats, error)
	// sumBy runs the generic front end (SumBy) on the workload's native
	// items; its records-form twin is a sum ReduceRecords over recs.
	sumBy func() error
}

// workload names one benchmark workload and builds its runner from a seed.
// tmp is a directory the workload may spill into.
type workload struct {
	name string
	// call names the timed call in trace spans.
	call  string
	setup func(seed uint64, tmp string) (runner, error)
}

var workloads = []workload{
	{"records-light", "semisort.Sorter.SortShared", setupRecordsLight},
	{"wordcount-zipf", "semisort.SumBy", setupWordCount},
	{"service-mixed", "server.Handler.ServeHTTP", setupService},
	{"shuffle-spill", "external.Shuffler", setupShuffle},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warm runs every client's operation k times. Outputs are checked only in
// the timed loop, where a wrong one is counted and reported.
func warm(r runner, k int) error {
	for range k {
		for c := range r.clients() {
			r.prepare(c)
			if err := r.run(c); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

var sumReducer = semisort.Reducer{
	Fold:  func(acc, v uint64) uint64 { return acc + v },
	Merge: func(a, b uint64) uint64 { return a + b },
}

// sortConfig is the configuration of every sort the benchmark calls.
func sortConfig(procs int) *semisort.Config { return &semisort.Config{Procs: procs, Seed: cfgSeed} }

// sumByKey is the generic front end over records keyed by their Key.
func sumByKey(recs []rec.Record, procs int) func() error {
	return func() error {
		_, err := semisort.SumBy(recs, func(r rec.Record) uint64 { return r.Key },
			func(r rec.Record) uint64 { return r.Value }, sortConfig(procs))
		return err
	}
}

// ---------------------------------------------------------------------
// records-light: a warm Sorter.SortShared over 2^21 uniform records.

type recordsLight struct {
	in, out []rec.Record
	want    multiset
	sorter  *semisort.Sorter
	set     keySet
}

func setupRecordsLight(seed uint64, _ string) (runner, error) {
	const n = 1 << 21
	r := &recordsLight{in: distgen.Generate(procs, n, distgen.Spec{Kind: distgen.Uniform, Param: n}, seed)}
	r.want = multisetOf(r.in)
	r.sorter = semisort.NewSorter(sortConfig(procs))
	return r, warm(r, 2)
}

func (r *recordsLight) clients() int           { return 1 }
func (r *recordsLight) floorBytes() int        { return len(r.in) * rec.RecordSize }
func (r *recordsLight) prepare(int) (int, int) { return len(r.in), len(r.in) * rec.RecordSize }
func (r *recordsLight) close() error           { r.sorter.Release(); return nil }

func (r *recordsLight) run(int) (err error) {
	r.out, err = r.sorter.SortShared(r.in)
	return err
}

func (r *recordsLight) check(int) error { return checkSemisorted(r.out, r.want, &r.set) }

func (r *recordsLight) layers() layerInput {
	return layerInput{
		recs: r.in, procs: procs,
		coreStats: func(s *semisort.Sorter) ([]semisort.Stats, error) {
			_, st, err := s.SortConfigShared(r.in, sortConfig(procs))
			return []semisort.Stats{st}, err
		},
		sumBy: sumByKey(r.in, procs),
	}
}

// ---------------------------------------------------------------------
// wordcount-zipf: SumBy over 2^20 words drawn Zipf(1) from 2^16.

const (
	wordcountItems = 1 << 20
	vocabulary     = 1 << 16
)

type wordCount struct {
	items     []string
	bytes     int
	want, got map[string]int64
	hashed    []rec.Record
}

func wordKey(w string) string { return w }
func wordOne(string) int64    { return 1 }

func setupWordCount(seed uint64, _ string) (runner, error) {
	vocab := makeVocabulary(seed, vocabulary)
	ranks := zipfRanks(seed, wordcountItems, vocabulary)
	fam := hash.NewFamily(seed)
	w := &wordCount{
		items:  make([]string, wordcountItems),
		want:   make(map[string]int64, vocabulary),
		hashed: make([]rec.Record, wordcountItems),
	}
	for i, k := range ranks {
		word := vocab[k]
		w.items[i] = word
		w.want[word]++
		w.bytes += len(word)
		w.hashed[i] = rec.Record{Key: fam.HashString(word), Value: 1}
	}
	w.bytes += wordcountItems * 16 // the string headers SumBy reads
	return w, warm(w, 2)
}

// makeVocabulary returns m distinct words: 1–8 seeded letters, a dash and
// the word's index in base 36.
func makeVocabulary(seed uint64, m int) []string {
	rng := hash.NewRNG(seed ^ 0x766f636162)
	out := make([]string, m)
	var b []byte
	for i := range out {
		u := rng.Rand(uint64(i))
		b = b[:0]
		for j := range 1 + int(u%8) {
			b = append(b, 'a'+byte((u>>(8+5*j))%26))
		}
		b = append(b, '-')
		out[i] = string(strconv.AppendInt(b, int64(i), 36))
	}
	return out
}

// zipfRanks draws n ranks in [0, m) with P(k) ∝ 1/(k+1).
func zipfRanks(seed uint64, n, m int) []int {
	cdf := make([]float64, m)
	h := 0.0
	for k := range cdf {
		h += 1 / float64(k+1)
		cdf[k] = h
	}
	rng := hash.NewRNG(seed ^ 0x7a697066)
	out := make([]int, n)
	for i := range out {
		u := (float64(rng.Rand(uint64(i))>>11) + 0.5) / (1 << 53) * h
		out[i] = min(sort.SearchFloat64s(cdf, u), m-1)
	}
	return out
}

func (w *wordCount) clients() int           { return 1 }
func (w *wordCount) floorBytes() int        { return w.bytes }
func (w *wordCount) prepare(int) (int, int) { return len(w.items), w.bytes }
func (w *wordCount) close() error           { return nil }

func (w *wordCount) run(int) (err error) {
	w.got, err = semisort.SumBy(w.items, wordKey, wordOne, sortConfig(procs))
	return err
}

func (w *wordCount) check(int) error { return checkWordCounts(w.got, w.want, len(w.items)) }

func (w *wordCount) layers() layerInput {
	return layerInput{
		recs: w.hashed, procs: procs,
		coreStats: func(s *semisort.Sorter) ([]semisort.Stats, error) {
			// SumBy returns no Stats; the same fused core call over
			// pre-hashed keys does.
			_, st, err := s.ReduceConfigShared(w.hashed, sumReducer, sortConfig(procs))
			return []semisort.Stats{st}, err
		},
		sumBy: func() error {
			_, err := semisort.SumBy(w.items, wordKey, wordOne, sortConfig(procs))
			return err
		},
	}
}

// ---------------------------------------------------------------------
// service-mixed: the semisortd handler in-process, a closed loop of two
// clients rotating through paths × sizes × distributions.

const (
	pathSemisort = "/v1/semisort"
	pathGroupBy  = "/v1/groupby"
	pathReduce   = "/v1/reduce"
)

// request is one service request of the mix and what it must return.
type request struct {
	url  string
	body []byte
	recs []rec.Record
	want wantResponse
}

// mixRequests builds one request per (path, record set), path varying
// fastest so consecutive requests alternate endpoints.
func mixRequests(sets [][]rec.Record) []request {
	var out []request
	for _, recs := range sets {
		in, red, distinct := multisetOf(recs), reduced(recs), len(rec.KeyCounts(recs))
		for _, p := range []struct{ path, url string }{
			{pathSemisort, pathSemisort}, {pathGroupBy, pathGroupBy}, {pathReduce, pathReduce + "?op=sum"},
		} {
			out = append(out, request{
				url: p.url, body: rec.AppendRecords(nil, recs), recs: recs,
				want: wantResponse{Path: p.path, In: in, Distinct: distinct, Reduced: red},
			})
		}
	}
	return out
}

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}
func (w *respWriter) reset() {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	clear(w.hdr)
	w.code, w.body = 0, w.body[:0]
}

type serviceClient struct {
	next int
	cur  *request
	req  *http.Request
	w    respWriter
	buf  []rec.Record
	set  keySet
}

type serviceMixed struct {
	srv  *server.Server
	h    http.Handler
	reqs []request
	sets [][]rec.Record
	cl   []*serviceClient
}

// serviceConfig is the server under test: a pool of two single-worker
// sorters, so two clients never run more sort goroutines than cores.
func serviceConfig() server.Config {
	return server.Config{PoolSize: 2, Semisort: semisort.Config{Procs: 1, Seed: cfgSeed}}
}

// serviceVariants is how many inputs the mix draws per (size,
// distribution) pair.
const serviceVariants = 4

func setupService(seed uint64, _ string) (runner, error) {
	s := &serviceMixed{}
	// Several inputs per (size, distribution) smooth out the cost of any
	// one input, which would otherwise move the mix's median from seed
	// to seed.
	for range serviceVariants {
		for _, n := range []int{4 << 10, 16 << 10, 64 << 10} {
			for _, spec := range []distgen.Spec{
				{Kind: distgen.Uniform, Param: float64(n)},
				{Kind: distgen.Zipfian, Param: float64(n)},
				{Kind: distgen.Exponential, Param: float64(n) / 1000},
			} {
				s.sets = append(s.sets, distgen.Generate(1, n, spec, seed+uint64(len(s.sets))))
			}
		}
	}
	s.reqs = mixRequests(s.sets)
	s.srv = server.New(serviceConfig())
	s.h = s.srv.Handler()
	for c := range 2 {
		s.cl = append(s.cl, &serviceClient{next: c * len(s.reqs) / 2})
	}
	return s, warm(s, len(s.reqs)/len(s.cl))
}

func (s *serviceMixed) clients() int { return len(s.cl) }

// floorBytes sizes each client's floor past the requests' working set:
// measured on a 2-core host, a floor streaming from memory tracked the
// service's run-to-run drift (throughput_xmemmove spread 6%) far better than
// a cache-resident one (14%), because the server's own work streams through
// freshly allocated memory.
func (s *serviceMixed) floorBytes() int { return 32 << 20 }

func (s *serviceMixed) prepare(c int) (int, int) {
	cl := s.cl[c]
	cl.cur = &s.reqs[cl.next%len(s.reqs)]
	cl.next++
	cl.req = httptest.NewRequest(http.MethodPost, cl.cur.url, bytes.NewReader(cl.cur.body))
	cl.w.reset()
	return len(cl.cur.recs), len(cl.cur.body)
}

func (s *serviceMixed) run(c int) error {
	s.h.ServeHTTP(&s.cl[c].w, s.cl[c].req)
	return nil
}

func (s *serviceMixed) check(c int) (err error) {
	cl := s.cl[c]
	cl.buf, err = checkResponse(cl.w.code, cl.w.body, cl.cur.want, cl.buf, &cl.set)
	return err
}

func (s *serviceMixed) close() error { return s.srv.Shutdown(context.Background()) }

func (s *serviceMixed) layers() layerInput {
	var all []rec.Record
	for _, set := range s.sets {
		all = append(all, set...)
	}
	return layerInput{
		recs: all, procs: 1, requests: s.reqs,
		coreStats: func(so *semisort.Sorter) ([]semisort.Stats, error) {
			// What the server's workers call, per request of the mix.
			var out []semisort.Stats
			cfg := serviceConfig().Semisort
			for _, r := range s.reqs {
				var st semisort.Stats
				var err error
				if r.want.Path == pathReduce {
					_, st, err = so.ReduceConfigShared(r.recs, sumReducer, &cfg)
				} else {
					_, st, err = so.SortConfigShared(r.recs, &cfg)
				}
				if err != nil {
					return nil, err
				}
				out = append(out, st)
			}
			return out, nil
		},
		sumBy: sumByKey(all, 1),
	}
}

// ---------------------------------------------------------------------
// shuffle-spill: external.Shuffler over 2^21 exponential records.

type shuffleSpill struct {
	in        []rec.Record
	cfg       external.Config
	want, got shuffleCounts
}

const shufflePartitions = 16

func shuffleConfig(tmp string, procs int) external.Config {
	return external.Config{TempDir: tmp, Partitions: shufflePartitions,
		Semisort: semisort.Config{Procs: procs, Seed: cfgSeed}}
}

func setupShuffle(seed uint64, tmp string) (runner, error) {
	const n = 1 << 21
	s := &shuffleSpill{
		in:  distgen.Generate(procs, n, distgen.Spec{Kind: distgen.Exponential, Param: n / 1000}, seed),
		cfg: shuffleConfig(tmp, procs),
	}
	s.want = shuffleCounts{Records: n, Groups: len(rec.KeyCounts(s.in))}
	return s, warm(s, 1)
}

func (s *shuffleSpill) clients() int           { return 1 }
func (s *shuffleSpill) floorBytes() int        { return len(s.in) * rec.RecordSize }
func (s *shuffleSpill) prepare(int) (int, int) { return len(s.in), len(s.in) * rec.RecordSize }
func (s *shuffleSpill) close() error           { return nil }

func (s *shuffleSpill) run(int) error {
	var err error
	s.got, _, err = shuffleOnce(s.in, &s.cfg, nil)
	return err
}

func (s *shuffleSpill) check(int) error { return checkShuffle(s.got, s.want) }

// shuffleTimes splits one shuffle into its three calls.
type shuffleTimes struct {
	add, forEach, close float64 // seconds
}

// shuffleOnce spills recs through a fresh Shuffler and reads every group
// back, counting what it emitted. With times non-nil it also times the
// AddBatch, ForEachGroup and Close calls.
func shuffleOnce(recs []rec.Record, cfg *external.Config, times *shuffleTimes) (shuffleCounts, external.ShuffleStats, error) {
	var got shuffleCounts
	t0 := time.Now()
	sh, err := external.NewShuffler(cfg)
	if err != nil {
		return got, external.ShuffleStats{}, err
	}
	if err := sh.AddBatch(recs); err != nil {
		sh.Close()
		return got, external.ShuffleStats{}, err
	}
	t1 := time.Now()
	err = sh.ForEachGroup(func(_ uint64, g []semisort.Record) error {
		got.Groups++
		got.Records += len(g)
		return nil
	})
	t2 := time.Now()
	if cerr := sh.Close(); err == nil {
		err = cerr
	}
	if times != nil {
		times.add, times.forEach, times.close = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Now().Sub(t2).Seconds()
	}
	return got, sh.Stats(), err
}

func (s *shuffleSpill) layers() layerInput {
	return layerInput{
		recs: s.in, procs: procs,
		coreStats: func(so *semisort.Sorter) ([]semisort.Stats, error) {
			// The per-partition sorts the shuffler runs, on the same split.
			parts := make([][]rec.Record, shufflePartitions)
			for _, r := range s.in {
				p := r.Key >> 60
				parts[p] = append(parts[p], r)
			}
			var out []semisort.Stats
			for _, p := range parts {
				_, st, err := so.SortConfigShared(p, &s.cfg.Semisort)
				if err != nil {
					return nil, err
				}
				out = append(out, st)
			}
			return out, nil
		},
		sumBy: sumByKey(s.in, procs),
	}
}
