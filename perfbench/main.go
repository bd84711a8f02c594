// Command perfbench is the repository's benchmark. It runs one workload
// (or all four, from one process) for a fixed time, checks every output,
// and reports each timing as a multiple of a memmove of the operation's
// own input, timed right after the operation, so drift of the host cancels
// out. See README.md in this directory for the workloads and metrics.
//
//	perfbench --workload records-light --seed 1 --seconds 20 --trace 0
//	perfbench compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, from a
// run that also records spans around every call into the program.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"
)

// setupRuns is how many times each workload is set up; setup_s is the
// median, so one slow set-up does not decide it.
const setupRuns = 3

// processStart approximates the process's start for the first-op figure.
var processStart = time.Now()

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out, tmp string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare old.json new.json")
			os.Exit(2)
		}
		if err := compareResults(os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var traceFlag int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", ")+" or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds of timed operations per workload")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	flag.StringVar(&o.out, "out", "", "directory for result files and spans (none if empty)")
	flag.StringVar(&o.tmp, "tmp", "", "directory for spill files (default: the system temp dir)")
	flag.Parse()
	o.trace = traceFlag == 1
	if flag.NArg() > 0 || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var run []workload
	if o.workload == "all" {
		run = workloads
	} else if w, ok := findWorkload(o.workload); ok {
		run = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s or all)\n", o.workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	os.Exit(runAll(run, o))
}

// runAll measures each workload and prints the final JSON line. It returns
// the exit code: 0, 1 when any output was wrong, 2 when a workload could
// not run at all (then nothing is printed).
func runAll(run []workload, o options) int {
	hf, err := newFloor(32 << 20)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	h := fingerprint(hf)
	hf.release()
	hb, _ := json.Marshal(h)
	fmt.Printf("# host %s\n", hb)

	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, w := range run {
		res, err := measure(w, o, h)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		res.dropNonFinite()
		if res.CheckError != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s: wrong output: %s\n", w.name, res.CheckError)
		}
		printResult(res)
		if err := saveResult(o, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		final.Attempted += res.Attempts
		final.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(run) > 1 {
				name = w.name + "/" + name
			}
			final.Metrics[name] = m
		}
	}
	final.Correct = final.Failed == 0
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(b))
	if !final.Correct {
		return 1
	}
	return 0
}

// measure sets w up setupRuns times and runs its timed loop; a traced run
// splits the time between an untraced and a traced loop and then probes
// every layer.
func measure(w workload, o options, h host) (result, error) {
	res := result{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: h,
		Raw: map[string]float64{}}
	tmp, err := os.MkdirTemp(o.tmp, "perfbench-")
	if err != nil {
		return res, fmt.Errorf("spill dir: %w", err)
	}
	defer os.RemoveAll(tmp)

	var r runner
	var setups []float64
	for range setupRuns {
		if r != nil {
			if err := r.close(); err != nil {
				return res, err
			}
			r = nil
			runtime.GC()
		}
		t0 := time.Now()
		if r, err = w.setup(o.seed, tmp); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	floors := make([]*floor, r.clients())
	for c := range floors {
		if floors[c], err = newFloor(r.floorBytes()); err != nil {
			return res, err
		}
		defer floors[c].release()
	}
	res.Raw["first_op_s"] = time.Since(processStart).Seconds()
	// Return what earlier set-ups freed, so op-window resident peaks
	// measure the live set and the op, not set-up residue.
	debug.FreeOSMemory()

	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		l := timedLoop(w, r, floors, d, nil)
		res.Samples, res.Attempts, res.Failed = len(l.samples), l.attempted, l.failed
		s := summarize(l.samples)
		res.Metrics = map[string]metric{
			"p50_xmemmove":        {s.P50X, "x"},
			"tail_xmemmove":       {s.TailX, "x"},
			"throughput_xmemmove": {s.ThroughputX, "x"},
			"setup_s":             {median(setups), "s"},
			"peak_rss_mb":         {l.peakRSS(), "MB"},
		}
		addRaw(res.Raw, s, l)
		res.setCheckError(l.err)
		return res, nil
	}

	untraced := timedLoop(w, r, floors, d/2, nil)
	tr := newTracer()
	traced := timedLoop(w, r, floors, d/2, tr)
	res.Samples = len(untraced.samples) + len(traced.samples)
	res.Attempts = untraced.attempted + traced.attempted
	res.Failed = untraced.failed + traced.failed
	res.setCheckError(errors.Join(untraced.err, traced.err))
	su, st := summarize(untraced.samples), summarize(traced.samples)
	addRaw(res.Raw, su, untraced)
	p := &probe{in: r.layers(), tr: tr, tmp: tmp, out: map[string]metric{}}
	if err := p.run(); err != nil {
		return res, err
	}
	p.set("floor.memmove_gbps", floors[0].gbps(), "GB/s")
	p.set("trace.overhead_pct", 100*(st.P50X/su.P50X-1), "%")
	p.set("alloc_b_per_rec", untraced.allocPerRec, "B")
	res.Metrics = p.out
	if o.out != "" {
		return res, tr.write(filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, o.seed)))
	}
	return res, nil
}

// loopResult is what one timed loop measured.
type loopResult struct {
	samples           []sample
	peaks             []float64 // resident-set peak per op window, MB
	attempted, failed int
	allocPerRec       float64
	err               error // the first wrong output
}

// timedLoop runs every client of r in a closed loop for d: prepare, the
// timed call, the floor for the same bytes, then the output check. With
// tr non-nil each iteration is recorded as spans.
func timedLoop(w workload, r runner, floors []*floor, d time.Duration, tr *tracer) loopResult {
	type clientResult struct {
		loopResult
		recs int
	}
	results := make([]clientResult, r.clients())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cr := &results[c]
			cr.samples = make([]sample, 0, 1<<16)
			// A lone client starts every op from a collected heap, so the op
			// pays for collecting its own garbage only and its resident
			// peak does not depend on where the last cycle left the heap.
			// Concurrent service clients share a steady-state heap instead.
			collect := len(results) == 1
			// Client 0 samples the resident-set peak of every op window.
			trackRSS := c == 0 && resetPeakRSS() == nil
			for i := int64(0); time.Now().Before(deadline); i++ {
				if collect {
					runtime.GC()
				}
				recs, bytes := r.prepare(c)
				if trackRSS {
					trackRSS = resetPeakRSS() == nil
				}
				root := tr.begin(int64(c)<<32|i, nil, "iteration")
				sp := tr.begin(int64(c)<<32|i, root, w.call)
				t0 := time.Now()
				err := r.run(c)
				op := time.Since(t0)
				sp.end(nil)
				if trackRSS {
					cr.peaks = append(cr.peaks, peakRSSMB())
				}
				sp = tr.begin(int64(c)<<32|i, root, "floor.memmove")
				fl := floors[c].time(bytes)
				sp.end(nil)
				if err == nil {
					sp = tr.begin(int64(c)<<32|i, root, "check")
					err = r.check(c)
					sp.end(nil)
				}
				if root != nil {
					root.end(map[string]int64{"records": int64(recs), "bytes": int64(bytes)})
				}
				cr.attempted++
				cr.recs += recs
				if err != nil {
					cr.failed++
					if cr.err == nil {
						cr.err = fmt.Errorf("client %d op %d: %w", c, i, err)
					}
					continue
				}
				cr.samples = append(cr.samples, sample{op: op, floor: fl, recs: recs})
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	var out loopResult
	recs := 0
	for _, cr := range results {
		out.samples = append(out.samples, cr.samples...)
		out.peaks = append(out.peaks, cr.peaks...)
		out.attempted += cr.attempted
		out.failed += cr.failed
		out.err = errors.Join(out.err, cr.err)
		recs += cr.recs
	}
	out.allocPerRec = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(recs, 1))
	return out
}

// peakRSS is the median resident-set peak of an op window, or the
// process's peak when the kernel cannot reset the high-water mark.
func (l loopResult) peakRSS() float64 {
	if len(l.peaks) == 0 {
		return peakRSSMB()
	}
	return median(l.peaks)
}

// addRaw records the un-normalized figures printed beside the metrics.
func addRaw(raw map[string]float64, s summary, l loopResult) {
	raw["samples"] = float64(s.N)
	raw["tail_pct"] = s.TailPct
	raw["p50_ms"] = s.P50Ms
	raw["tail_ms"] = s.TailMs
	raw["mrec_per_s"] = s.MRecPerS
	raw["alloc_b_per_rec"] = l.allocPerRec
	raw["fail_ratio"] = float64(l.failed) / float64(max(l.attempted, 1))
	raw["process_peak_rss_mb"] = peakRSSMB()
	fls := make([]float64, len(l.samples))
	for i, x := range l.samples {
		fls[i] = float64(x.floor) / 1e6
	}
	raw["floor_ms"] = median(fls)
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }

// printResult prints one workload's metrics, with units and sample count,
// as comment lines ahead of the final JSON line.
func printResult(r result) {
	fmt.Printf("# %s seed=%d samples=%d attempted=%d failed=%d fail_ratio=%g\n",
		r.Workload, r.Seed, r.Samples, r.Attempts, r.Failed, float64(r.Failed)/float64(max(r.Attempts, 1)))
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Printf("#   %-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(r.Raw) {
		fmt.Printf("#   raw.%-26s %14.6g\n", name, r.Raw[name])
	}
}

// saveResult writes r to o.out, if set, for the compare subcommand.
func saveResult(o options, r result) error {
	if o.out == "" {
		return nil
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, map[bool]int{false: 0, true: 1}[r.Trace])
	return os.WriteFile(filepath.Join(o.out, name), append(b, '\n'), 0o644)
}
