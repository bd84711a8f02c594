// Command semibench regenerates the tables and figures from the paper's
// evaluation (Section 5) using this library's implementations.
//
// Usage:
//
//	semibench -experiment all                # everything
//	semibench -experiment table1 -n 1000000  # one experiment at a size
//	semibench -experiment fig2 -procs 1,2,4,8,16
//	semibench -experiment table4 -sizes 1e6,2e6,5e6 -reps 5
//	semibench -experiment observe -trace trace.json  # instrumented run + JSON trace
//	semibench -baseline BENCH_semisort.json -n 2e5 -procs 2 -reps 5   # store baseline
//	semibench -compare BENCH_semisort.json                            # CI perf gate
//
// Experiments: table1 table2 table3 table4 table5 fig1 fig2 fig3 fig4 fig5
// seqbaselines rrcompare ablation scatter faults observe reuse reduce
// dovetail outofcore all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

var experiments = map[string]func(bench.Options) []*bench.Table{
	"table1":       bench.RunTable1,
	"table2":       bench.RunTable2,
	"table3":       bench.RunTable3,
	"table4":       bench.RunTable4,
	"table5":       bench.RunTable5,
	"fig1":         bench.RunFig1,
	"fig2":         bench.RunFig2,
	"fig3":         bench.RunFig3,
	"fig4":         bench.RunFig4,
	"fig5":         bench.RunFig5,
	"seqbaselines": bench.RunSeqBaselines,
	"rrcompare":    bench.RunRRCompare,
	"ablation":     bench.RunAblation,
	"scatter":      bench.RunScatter,
	"faults":       bench.RunFaults,
	"observe":      bench.RunObserve,
	"reuse":        bench.RunReuse,
	"reduce":       bench.RunReduce,
	"dovetail":     bench.RunDovetail,
	"outofcore":    bench.RunOutOfCore,
}

// order fixes a deterministic run order for -experiment all.
var order = []string{
	"table1", "table2", "table3", "table4", "table5",
	"fig1", "fig2", "fig3", "fig4", "fig5", "seqbaselines", "rrcompare", "ablation",
	"scatter", "faults", "observe", "reuse", "reduce", "dovetail",
	"outofcore",
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run: "+strings.Join(order, " ")+" or all")
		n          = flag.String("n", "1e6", "input size for fixed-size experiments")
		sizes      = flag.String("sizes", "", "comma-separated size sweep (default: n/8,n/4,n/2,n,2n)")
		procs      = flag.String("procs", "1,2,4,8", "comma-separated thread sweep")
		reps       = flag.Int("reps", 3, "repetitions per measurement (min is reported)")
		seed       = flag.Uint64("seed", 20150613, "workload seed")
		csvPath    = flag.String("csv", "", "also write all tables as CSV to this file")
		tracePath  = flag.String("trace", "", "observe experiment: write the JSON-lines phase trace to this file")
		baseline   = flag.String("baseline", "", "measure a seeded phase breakdown and write it to this file, then exit")
		compare    = flag.String("compare", "", "re-measure under a stored baseline's config and fail on phase-level regression")
		tolerance  = flag.Float64("tolerance", bench.DefaultTolerance, "relative slowdown allowed per phase by -compare")
	)
	flag.Parse()

	nv, err := parseSize(*n)
	if err != nil {
		fatalf("bad -n: %v", err)
	}
	o := bench.Options{
		N:    nv,
		Reps: *reps,
		Seed: *seed,
		Out:  os.Stdout,
	}
	if *sizes != "" {
		o.Sizes, err = parseSizeList(*sizes)
		if err != nil {
			fatalf("bad -sizes: %v", err)
		}
	} else {
		o.Sizes = []int{nv / 8, nv / 4, nv / 2, nv, 2 * nv}
	}
	o.Procs, err = parseIntList(*procs)
	if err != nil {
		fatalf("bad -procs: %v", err)
	}
	o.TracePath = *tracePath

	if *baseline != "" {
		b := bench.MeasureBaseline(o)
		if err := b.Write(*baseline); err != nil {
			fatalf("write baseline: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote baseline (n=%d, procs=%d, reps=%d, total=%.4fs) to %s\n",
			b.N, b.Procs, b.Reps, b.TotalSec, *baseline)
		return
	}
	if *compare != "" {
		base, err := bench.ReadBaseline(*compare)
		if err != nil {
			fatalf("read baseline: %v", err)
		}
		// Re-measure under the baseline's own configuration so the gate
		// cannot silently compare apples to oranges.
		cur := bench.MeasureBaseline(bench.Options{
			N: base.N, Procs: []int{base.Procs}, Reps: base.Reps, Seed: base.Seed,
		})
		if err := bench.Compare(cur, base, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "semibench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "no phase-level regression vs %s (total %.4fs vs baseline %.4fs, tolerance %.0f%%)\n",
			*compare, cur.TotalSec, base.TotalSec, 100**tolerance)
		return
	}

	names := order
	if *experiment != "all" {
		if _, ok := experiments[*experiment]; !ok {
			fatalf("unknown experiment %q; options: %s, all", *experiment, strings.Join(order, " "))
		}
		names = []string{*experiment}
	}

	var all []*bench.Table
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "running %s (n=%d, procs=%v, reps=%d)...\n", name, o.N, o.Procs, o.Reps)
		all = append(all, experiments[name](o)...)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatalf("create csv: %v", err)
		}
		defer f.Close()
		for _, t := range all {
			fmt.Fprintf(f, "# %s\n", t.Title)
			t.CSV(f)
			fmt.Fprintln(f)
		}
		fmt.Fprintf(os.Stderr, "wrote CSV to %s\n", *csvPath)
	}
}

// parseSize accepts integers with optional scientific notation (1e6) or
// k/m/g suffixes.
func parseSize(s string) (int, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1_000, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1_000_000, s[:len(s)-1]
	case strings.HasSuffix(s, "g"):
		mult, s = 1_000_000_000, s[:len(s)-1]
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		v := int(f) * mult
		if v <= 0 {
			return 0, fmt.Errorf("size %q must be positive", s)
		}
		return v, nil
	}
	return 0, fmt.Errorf("cannot parse size %q", s)
}

func parseSizeList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := parseSize(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "semibench: "+format+"\n", args...)
	os.Exit(2)
}
