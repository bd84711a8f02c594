package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"time"

	semisort "repro"
	"repro/internal/hashtable"
	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/prim"
	"repro/internal/rec"
	"repro/internal/sortint"
	"repro/server"
)

// heavyThreshold is the record count at which the core's default sample
// (rate 16, δ = 16) classifies a key heavy.
const heavyThreshold = 16 * 16

// probeTrace is the trace id of probe spans; timed-loop operations use
// ids from 0 up, and each server-probe client one below probeTrace.
const probeTrace = -1

// probe times every layer from outside, by calling its public functions
// on the workload's input, and records one span per layer call.
type probe struct {
	in  layerInput
	tr  *tracer
	tmp string
	out map[string]metric
}

func (p *probe) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// timed runs fn reps times under a span named name and returns the median
// duration.
func (p *probe) timed(name string, reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for range reps {
		sp := p.tr.begin(probeTrace, nil, name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		sp.end(nil)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// run measures every layer; the metrics land in p.out.
func (p *probe) run() error {
	for _, f := range []func() error{
		p.parallelFor, p.prim, p.hashtable, p.dovetail, p.core, p.reduceFront, p.server, p.external,
	} {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// parallelFor times an empty parallel.For over the input at the grain the
// core picks for it, at the workload's worker count.
func (p *probe) parallelFor() error {
	n := len(p.in.recs)
	grain := parallel.Grain(n, p.in.procs, 1)
	const calls = 200
	d, err := p.timed("parallel.For", 5, func() error {
		for range calls {
			parallel.For(p.in.procs, n, grain, func(lo, hi int) {})
		}
		return nil
	})
	p.set("parallel.for_us", float64(d)/calls/1e3, "us")
	return err
}

// prim times ExclusiveScan over one int64 per record and Pack of every
// other record.
func (p *probe) prim() error {
	n := len(p.in.recs)
	counts := make([]int64, n)
	scan := make([]float64, 0, 5)
	for range 5 {
		for i := range counts { // the scan overwrites its input
			counts[i] = 1
		}
		sp := p.tr.begin(probeTrace, nil, "prim.ExclusiveScan")
		t0 := time.Now()
		prim.ExclusiveScan(p.in.procs, counts)
		scan = append(scan, float64(time.Since(t0)))
		sp.end(nil)
	}
	p.set("prim.scan_gbps", float64(n*8)/median(scan), "GB/s")
	flags := make([]bool, n)
	for i := range flags {
		flags[i] = i%2 == 0
	}
	d, err := p.timed("prim.Pack", 5, func() error {
		prim.Pack(p.in.procs, p.in.recs, flags)
		return nil
	})
	p.set("prim.pack_gbps", float64(n*(rec.RecordSize+1))/float64(d), "GB/s")
	return err
}

// heavyKeys returns the keys of recs that the core would classify heavy.
func heavyKeys(recs []rec.Record) []uint64 {
	var out []uint64
	for k, c := range rec.KeyCounts(recs) {
		if c >= heavyThreshold {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// hashtable times LookupBatch of every input key against a table of the
// input's heavy keys (empty when the input has none).
func (p *probe) hashtable() error {
	heavy := heavyKeys(p.in.recs)
	t := hashtable.New(len(heavy))
	for i, k := range heavy {
		t.Insert(k, uint64(i))
	}
	keys := make([]uint64, len(p.in.recs))
	for i, r := range p.in.recs {
		keys[i] = r.Key
	}
	const block = 1024
	vals := make([]uint64, block)
	ok := make([]bool, block)
	d, err := p.timed("hashtable.LookupBatch", 5, func() error {
		for lo := 0; lo < len(keys); lo += block {
			hi := min(lo+block, len(keys))
			t.LookupBatch(keys[lo:hi], vals[:hi-lo], ok[:hi-lo])
		}
		return nil
	})
	p.set("hashtable.lookup_ns", float64(d)/float64(len(keys)), "ns")
	return err
}

// dovetail times the dovetail radix semisort on a copy of the input.
func (p *probe) dovetail() error {
	a := make([]rec.Record, len(p.in.recs))
	scratch := make([]rec.Record, len(a))
	ds := make([]float64, 0, 3)
	for range 3 {
		copy(a, p.in.recs)
		sp := p.tr.begin(probeTrace, nil, "sortint.DovetailSemisortWith")
		t0 := time.Now()
		err := sortint.DovetailSemisortWith(context.Background(), p.in.procs, a, scratch, nil)
		ds = append(ds, float64(time.Since(t0)))
		sp.end(nil)
		if err != nil {
			return fmt.Errorf("dovetail: %w", err)
		}
	}
	p.set("sortint.dovetail_ns_per_rec", median(ds)/float64(len(a)), "ns")
	return nil
}

// core reads the phase breakdown and route of the workload's core calls.
func (p *probe) core() error {
	s := semisort.NewSorter(nil)
	defer s.Release()
	if _, err := p.in.coreStats(s); err != nil { // warm the workspace
		return fmt.Errorf("core: %w", err)
	}
	sp := p.tr.begin(probeTrace, nil, "core")
	stats, err := p.in.coreStats(s)
	sp.end(map[string]int64{"calls": int64(len(stats))})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for name, v := range coreMetrics(stats) {
		p.out[name] = v
	}
	return nil
}

// coreMetrics averages Stats over calls: phase times per call, the retry
// ladder, slot and heavy shares per record, and the route taken.
func coreMetrics(stats []semisort.Stats) map[string]metric {
	var ph [5]time.Duration
	var attempts, firstTry, rounds, n, slots, heavy int
	routes := map[string]int{}
	for _, s := range stats {
		ph[0] += s.Phases.SampleSort
		ph[1] += s.Phases.Buckets
		ph[2] += s.Phases.Scatter
		ph[3] += s.Phases.LocalSort
		ph[4] += s.Phases.Pack
		attempts += s.Attempts
		if s.Attempts == 1 {
			firstTry++
		}
		rounds += s.SampleRounds
		n += s.N
		slots += s.SlotsAllocated
		heavy += s.HeavyRecords
		routes[s.ScatterStrategy]++
	}
	calls := float64(max(len(stats), 1))
	out := map[string]metric{}
	for i, name := range []string{"sample", "buckets", "scatter", "localsort", "pack"} {
		out["core."+name+"_ms"] = metric{float64(ph[i]) / 1e6 / calls, "ms"}
	}
	out["core.attempts_mean"] = metric{float64(attempts) / calls, "count"}
	out["core.first_try_ratio"] = metric{float64(firstTry) / calls, "ratio"}
	out["core.sample_rounds"] = metric{float64(rounds) / calls, "count"}
	out["core.slots_per_rec"] = metric{float64(slots) / float64(max(n, 1)), "count"}
	out["core.heavy_rec_frac"] = metric{float64(heavy) / float64(max(n, 1)), "ratio"}
	for _, r := range []string{"probing", "counting", "dovetail"} {
		out["core.route_"+r+"_frac"] = metric{float64(routes[r]) / calls, "ratio"}
	}
	return out
}

// reduceFront times a sum ReduceRecords over the records form and SumBy
// over the native items; the difference is the generic front end's cost.
func (p *probe) reduceFront() error {
	var groups int
	red, err := p.timed("semisort.ReduceRecords", 3, func() error {
		out, err := semisort.ReduceRecords(p.in.recs, sumReducer, sortConfig(p.in.procs))
		groups = len(out)
		return err
	})
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	front, err := p.timed("semisort.SumBy", 3, p.in.sumBy)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	p.set("reduce.ms", float64(red)/1e6, "ms")
	p.set("reduce.groups_out", float64(groups), "count")
	p.set("front.overhead_ms", float64(front-red)/1e6, "ms")
	p.set("front.alloc_b_per_item", float64(ms1.TotalAlloc-ms0.TotalAlloc)/3/float64(len(p.in.recs)), "B")
	return nil
}

// serverProbeRequests is the least number of requests each server-probe
// client sends; it cycles through the request list to reach it.
const serverProbeRequests = 64

// server sends the workload's requests (or, for batch workloads, a mix
// cut from its input) through a traced in-process semisortd handler from
// two clients and splits the request spans it reports.
func (p *probe) server() error {
	reqs := p.in.requests
	if reqs == nil {
		var sets [][]rec.Record
		for _, n := range []int{4 << 10, 16 << 10, 64 << 10} {
			sets = append(sets, p.in.recs[:min(n, len(p.in.recs))])
		}
		reqs = mixRequests(sets)
	}
	var spans bytes.Buffer
	cfg := serviceConfig()
	cfg.Trace = &spans
	srv := server.New(cfg)
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	rounds := (serverProbeRequests + len(reqs) - 1) / len(reqs)
	// Build every request up front so the allocation count is the
	// server's alone.
	const clients = 2
	hreqs := make([][]*http.Request, clients)
	for c := range hreqs {
		for range rounds {
			for _, r := range reqs {
				hreqs[c] = append(hreqs[c], httptest.NewRequest(http.MethodPost, r.url, bytes.NewReader(r.body)))
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w respWriter
			for i, hr := range hreqs[c] {
				w.reset()
				sp := p.tr.begin(probeTrace-1-int64(c), nil, "server.ServeHTTP")
				h.ServeHTTP(&w, hr)
				sp.end(nil)
				if w.code != http.StatusOK && errs[c] == nil {
					errs[c] = fmt.Errorf("server probe: request %d: status %d", i, w.code)
				}
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	total := clients * rounds * len(reqs)

	var queue, sortUS, totalUS, other []float64
	shed := 0
	dec := json.NewDecoder(&spans)
	for dec.More() {
		var s obsv.RequestSpan
		if err := dec.Decode(&s); err != nil {
			return fmt.Errorf("server probe: trace: %w", err)
		}
		if s.Outcome == obsv.ReqShed {
			shed++
		}
		queue = append(queue, float64(s.QueueWaitUS))
		sortUS = append(sortUS, float64(s.SortUS))
		totalUS = append(totalUS, float64(s.TotalUS))
		other = append(other, float64(s.TotalUS-s.QueueWaitUS-s.SortUS))
	}
	if len(totalUS) != total {
		return fmt.Errorf("server probe: %d request spans for %d requests", len(totalUS), total)
	}
	p.set("server.queue_wait_us_mean", mean(queue), "us")
	for name, xs := range map[string][]float64{"sort": sortUS, "total": totalUS} {
		slices.Sort(xs)
		p.set("server."+name+"_us_p50", percentile(xs, 50), "us")
		p.set("server."+name+"_us_p99", percentile(xs, 99), "us")
	}
	p.set("server.other_us", mean(other), "us")
	p.set("server.alloc_b_per_req", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(total), "B")
	p.set("server.shed_ratio", float64(shed)/float64(total), "ratio")

	// Decode and encode of the same bodies, as the handler does them.
	var buf []rec.Record
	var enc []byte
	d, err := p.timed("rec.DecodeRecords", 3, func() (err error) {
		for _, r := range reqs {
			if buf, err = rec.DecodeRecords(buf[:0], r.body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("server.decode_us", float64(d)/1e3/float64(len(reqs)), "us")
	d, _ = p.timed("rec.AppendRecords", 3, func() error {
		for _, r := range reqs {
			enc = rec.AppendRecords(enc[:0], r.recs)
		}
		return nil
	})
	p.set("server.encode_us", float64(d)/1e3/float64(len(reqs)), "us")
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// external runs the input through a 16-partition Shuffler three times and
// reports the median of each call's time and the spill counters.
func (p *probe) external() error {
	cfg := shuffleConfig(p.tmp, p.in.procs)
	var add, forEach, closeS []float64
	var readMBs, spillBytes, spillStalls, prefetchStalls float64
	const reps = 3
	for range reps {
		var t shuffleTimes
		sp := p.tr.begin(probeTrace, nil, "external.Shuffler")
		got, stats, err := shuffleOnce(p.in.recs, &cfg, &t)
		sp.end(map[string]int64{"records": int64(got.Records), "groups": int64(got.Groups)})
		if err != nil {
			return fmt.Errorf("external probe: %w", err)
		}
		if got.Records != len(p.in.recs) {
			return fmt.Errorf("external probe: emitted %d of %d records", got.Records, len(p.in.recs))
		}
		add, forEach, closeS = append(add, t.add), append(forEach, t.forEach), append(closeS, t.close)
		readMBs += float64(stats.BytesRead) / 1e6 / t.forEach
		spillBytes += float64(stats.SpillBytes)
		spillStalls += float64(stats.SpillStalls)
		prefetchStalls += float64(stats.PrefetchStalls)
	}
	n := float64(len(p.in.recs))
	p.set("external.add_ms", median(add)*1e3, "ms")
	p.set("external.foreach_ms", median(forEach)*1e3, "ms")
	p.set("external.close_ms", median(closeS)*1e3, "ms")
	p.set("external.read_mb_s", readMBs/reps, "MB/s")
	p.set("external.spill_bytes_per_rec", spillBytes/reps/n, "B")
	p.set("external.spill_stalls", spillStalls/reps, "count")
	p.set("external.prefetch_stalls", prefetchStalls/reps, "count")
	return nil
}
