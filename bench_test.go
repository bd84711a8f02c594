// Benchmarks regenerating the measurement behind every table and figure in
// the paper's evaluation (Section 5), as testing.B benchmarks. The
// semibench CLI produces the full formatted tables; these benches provide
// the same measurements under `go test -bench`.
//
// Mapping (see DESIGN.md's per-experiment index):
//
//	BenchmarkTable1_*   — semisort across the 17 distributions
//	BenchmarkTable2_*   — phase breakdown workload (exponential λ=n/10^3)
//	BenchmarkTable3_*   — phase breakdown workload (uniform N=n)
//	BenchmarkTable4_*   — size sweep + scatter/pack floor
//	BenchmarkTable5_*   — comparison sorts and radix sort baselines
//	BenchmarkFig1_*     — parameter sweeps per distribution class
//	BenchmarkFig2_*     — thread sweep, semisort vs radix
//	BenchmarkFig3_*     — phase fractions (reported as metrics)
//	BenchmarkFig4_*     — per-algorithm size sweeps
//	BenchmarkFig5_*     — semisort vs scatter+pack floor
//	BenchmarkAblation_* — p, δ, light-bucket count
//	BenchmarkReduce_*   — fused collect-reduce vs materialize-then-reduce
//
// Input sizes default to 2^18 records (the paper uses 10^8; see
// EXPERIMENTS.md for the scale-down rationale).
package semisort

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/rec"
	"repro/internal/rrsort"
	"repro/internal/seqsemi"
	"repro/internal/sortcmp"
	"repro/internal/sortint"
)

const benchN = 1 << 18

// workload cache so repeated benches don't regenerate inputs.
var (
	wlMu    sync.Mutex
	wlCache = map[string][]rec.Record{}
)

func workload(n int, spec distgen.Spec, seed uint64) []rec.Record {
	key := fmt.Sprintf("%d/%d/%g/%d", n, spec.Kind, spec.Param, seed)
	wlMu.Lock()
	defer wlMu.Unlock()
	if a, ok := wlCache[key]; ok {
		return a
	}
	a := distgen.Generate(0, n, spec, seed)
	wlCache[key] = a
	return a
}

func expSpec(n int) distgen.Spec {
	return distgen.Spec{Kind: distgen.Exponential, Param: float64(n) / 1e3}
}
func uniSpec(n int) distgen.Spec {
	return distgen.Spec{Kind: distgen.Uniform, Param: float64(n)}
}

func benchSemisort(b *testing.B, a []rec.Record, cfg core.Config) {
	b.Helper()
	cfg.ScatterStrategy = core.ScatterProbing // the paper's scatter, not the default planner
	var ws core.Workspace
	b.SetBytes(int64(len(a)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SemisortWS(&ws, a, &cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(a))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
}

func benchSortCopy(b *testing.B, a []rec.Record, fn func([]rec.Record)) {
	b.Helper()
	buf := make([]rec.Record, len(a))
	b.SetBytes(int64(len(a)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, a)
		fn(buf)
	}
	b.ReportMetric(float64(len(a))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
}

// ---------------------------------------------------------------------------
// Table 1: the 17 distributions.

func BenchmarkTable1_Semisort(b *testing.B) {
	for _, st := range distgen.TableOneSettings(benchN) {
		b.Run(fmt.Sprintf("%s_%g", st.Name, st.Param), func(b *testing.B) {
			a := workload(benchN, st.Spec, 1)
			benchSemisort(b, a, core.Config{Seed: 7})
		})
	}
}

func BenchmarkTable1_RadixSort(b *testing.B) {
	for _, st := range distgen.TableOneSettings(benchN) {
		b.Run(fmt.Sprintf("%s_%g", st.Name, st.Param), func(b *testing.B) {
			a := workload(benchN, st.Spec, 1)
			benchSortCopy(b, a, func(buf []rec.Record) { sortint.RadixSort(0, buf) })
		})
	}
}

// ---------------------------------------------------------------------------
// Tables 2 and 3: the breakdown workloads (phase fractions are reported as
// custom metrics; the semibench CLI prints the full tables).

func benchBreakdown(b *testing.B, spec distgen.Spec) {
	a := workload(benchN, spec, 1)
	b.SetBytes(int64(len(a)) * 16)
	var agg core.PhaseTimes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The paper's scatter, not the default planner.
		_, st, err := core.Semisort(a, &core.Config{Seed: 7, ScatterStrategy: core.ScatterProbing})
		if err != nil {
			b.Fatal(err)
		}
		agg.SampleSort += st.Phases.SampleSort
		agg.Buckets += st.Phases.Buckets
		agg.Scatter += st.Phases.Scatter
		agg.LocalSort += st.Phases.LocalSort
		agg.Pack += st.Phases.Pack
	}
	total := agg.Total()
	if total > 0 {
		b.ReportMetric(100*float64(agg.SampleSort)/float64(total), "%sample")
		b.ReportMetric(100*float64(agg.Buckets)/float64(total), "%buckets")
		b.ReportMetric(100*float64(agg.Scatter)/float64(total), "%scatter")
		b.ReportMetric(100*float64(agg.LocalSort)/float64(total), "%localsort")
		b.ReportMetric(100*float64(agg.Pack)/float64(total), "%pack")
	}
}

func BenchmarkTable2_BreakdownExponential(b *testing.B) { benchBreakdown(b, expSpec(benchN)) }
func BenchmarkTable3_BreakdownUniform(b *testing.B)     { benchBreakdown(b, uniSpec(benchN)) }

// ---------------------------------------------------------------------------
// Table 4: size sweep and the scatter+pack floor.

func BenchmarkTable4_SizeSweep(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
		for _, d := range []struct {
			name string
			spec distgen.Spec
		}{{"exponential", expSpec(n)}, {"uniform", uniSpec(n)}} {
			b.Run(fmt.Sprintf("%s_n%d", d.name, n), func(b *testing.B) {
				a := workload(n, d.spec, 1)
				benchSemisort(b, a, core.Config{Seed: 7})
			})
		}
	}
}

func BenchmarkTable4_ScatterPackFloor(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			a := workload(n, uniSpec(n), 1)
			b.SetBytes(int64(n) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.ScatterPack(0, a, 9)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Table 5: comparison sorts and radix sort.

func BenchmarkTable5_STLSort(b *testing.B) {
	a := workload(benchN, uniSpec(benchN), 1)
	benchSortCopy(b, a, func(buf []rec.Record) { sortcmp.Introsort(buf) })
}

func BenchmarkTable5_ParallelSTLSort(b *testing.B) {
	a := workload(benchN, uniSpec(benchN), 1)
	benchSortCopy(b, a, func(buf []rec.Record) { sortcmp.ParallelQuicksort(0, buf) })
}

func BenchmarkTable5_SampleSort(b *testing.B) {
	a := workload(benchN, uniSpec(benchN), 1)
	benchSortCopy(b, a, func(buf []rec.Record) { sortcmp.SampleSort(0, buf) })
}

func BenchmarkTable5_MergeSort(b *testing.B) {
	a := workload(benchN, uniSpec(benchN), 1)
	benchSortCopy(b, a, func(buf []rec.Record) { sortcmp.MergeSort(0, buf) })
}

func BenchmarkTable5_RadixSort(b *testing.B) {
	a := workload(benchN, uniSpec(benchN), 1)
	benchSortCopy(b, a, func(buf []rec.Record) { sortint.RadixSort(0, buf) })
}

func BenchmarkTable5_Semisort(b *testing.B) {
	a := workload(benchN, uniSpec(benchN), 1)
	benchSemisort(b, a, core.Config{Seed: 7})
}

// Section 5.4 sequential baselines.

func BenchmarkSeq_Semisort1Thread(b *testing.B) {
	a := workload(benchN, expSpec(benchN), 1)
	benchSemisort(b, a, core.Config{Procs: 1, Seed: 7})
}

func BenchmarkSeq_ChainedHashTable(b *testing.B) {
	a := workload(benchN, expSpec(benchN), 1)
	b.SetBytes(int64(len(a)) * 16)
	for i := 0; i < b.N; i++ {
		seqsemi.Chained(a)
	}
}

func BenchmarkSeq_OpenAddressing(b *testing.B) {
	a := workload(benchN, expSpec(benchN), 1)
	b.SetBytes(int64(len(a)) * 16)
	for i := 0; i < b.N; i++ {
		seqsemi.OpenAddressing(a)
	}
}

func BenchmarkSeq_TwoPhase(b *testing.B) {
	a := workload(benchN, expSpec(benchN), 1)
	b.SetBytes(int64(len(a)) * 16)
	for i := 0; i < b.N; i++ {
		seqsemi.TwoPhase(a)
	}
}

func BenchmarkSeq_GoMap(b *testing.B) {
	a := workload(benchN, expSpec(benchN), 1)
	b.SetBytes(int64(len(a)) * 16)
	for i := 0; i < b.N; i++ {
		seqsemi.GoMap(a)
	}
}

// ---------------------------------------------------------------------------
// Figure 1: parameter sweeps per class (time + heavy fraction).

func BenchmarkFig1_ParameterSweep(b *testing.B) {
	classes := []struct {
		kind   distgen.Kind
		params []float64
	}{
		{distgen.Exponential, []float64{100, 1e3, 1e4, 1e5, 3e5, 1e6}},
		{distgen.Uniform, []float64{10, 1e5, 3.2e5, 5e5, 1e6, 1e8}},
		{distgen.Zipfian, []float64{1e4, 1e5, 1e6, 1e7, 1e8}},
	}
	scale := float64(benchN) / 1e8
	for _, cl := range classes {
		for _, paper := range cl.params {
			param := max(paper*scale, 1)
			b.Run(fmt.Sprintf("%s_%g", cl.kind, paper), func(b *testing.B) {
				a := workload(benchN, distgen.Spec{Kind: cl.kind, Param: param}, 1)
				benchSemisort(b, a, core.Config{Seed: 7})
				b.ReportMetric(100*distgen.HeavyFraction(a, 256), "%heavy")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 2: thread sweep, semisort vs radix sort.

func BenchmarkFig2_ThreadSweep(b *testing.B) {
	for _, d := range []struct {
		name string
		spec distgen.Spec
	}{{"exponential", expSpec(benchN)}, {"uniform", uniSpec(benchN)}} {
		a := workload(benchN, d.spec, 1)
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("semisort_%s_p%d", d.name, p), func(b *testing.B) {
				benchSemisort(b, a, core.Config{Procs: p, Seed: 7})
			})
			b.Run(fmt.Sprintf("radix_%s_p%d", d.name, p), func(b *testing.B) {
				benchSortCopy(b, a, func(buf []rec.Record) { sortint.RadixSort(p, buf) })
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 3 is the chart form of Tables 2–3; its measurement is the phase
// fraction metrics of BenchmarkTable2/3. Alias for discoverability.

func BenchmarkFig3_PhaseFractionsExponential(b *testing.B) { benchBreakdown(b, expSpec(benchN)) }
func BenchmarkFig3_PhaseFractionsUniform(b *testing.B)     { benchBreakdown(b, uniSpec(benchN)) }

// ---------------------------------------------------------------------------
// Figure 4: per-algorithm size sweeps (records/sec vs n).

func BenchmarkFig4_Algorithms(b *testing.B) {
	algos := []struct {
		name string
		fn   func(a []rec.Record, b *testing.B)
	}{
		{"samplesort", func(a []rec.Record, b *testing.B) {
			benchSortCopy(b, a, func(buf []rec.Record) { sortcmp.SampleSort(0, buf) })
		}},
		{"radixsort", func(a []rec.Record, b *testing.B) {
			benchSortCopy(b, a, func(buf []rec.Record) { sortint.RadixSort(0, buf) })
		}},
		{"stlsort", func(a []rec.Record, b *testing.B) {
			benchSortCopy(b, a, func(buf []rec.Record) { sortcmp.ParallelQuicksort(0, buf) })
		}},
		{"semisort", func(a []rec.Record, b *testing.B) {
			benchSemisort(b, a, core.Config{Seed: 7})
		}},
	}
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
		for _, d := range []struct {
			name string
			spec distgen.Spec
		}{{"exponential", expSpec(n)}, {"uniform", uniSpec(n)}} {
			a := workload(n, d.spec, 1)
			for _, alg := range algos {
				b.Run(fmt.Sprintf("%s_%s_n%d", alg.name, d.name, n), func(b *testing.B) {
					alg.fn(a, b)
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 5: semisort vs the scatter+pack floor across sizes.

func BenchmarkFig5_SemisortVsFloor(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
		a := workload(n, uniSpec(n), 1)
		b.Run(fmt.Sprintf("semisort_n%d", n), func(b *testing.B) {
			benchSemisort(b, a, core.Config{Seed: 7})
		})
		b.Run(fmt.Sprintf("floor_n%d", n), func(b *testing.B) {
			b.SetBytes(int64(n) * 16)
			for i := 0; i < b.N; i++ {
				core.ScatterPack(0, a, 9)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations of the design choices (Section 4 parameters).

func BenchmarkAblation_SampleRate(b *testing.B) {
	a := workload(benchN, uniSpec(benchN), 1)
	for _, rate := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("rate%d", rate), func(b *testing.B) {
			benchSemisort(b, a, core.Config{SampleRate: rate, Seed: 7})
		})
	}
}

func BenchmarkAblation_Delta(b *testing.B) {
	a := workload(benchN, expSpec(benchN), 1)
	for _, delta := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("delta%d", delta), func(b *testing.B) {
			benchSemisort(b, a, core.Config{Delta: delta, Seed: 7})
		})
	}
}

func BenchmarkAblation_LightBuckets(b *testing.B) {
	a := workload(benchN, uniSpec(benchN), 1)
	for _, nb := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("buckets%d", nb), func(b *testing.B) {
			benchSemisort(b, a, core.Config{MaxLightBuckets: nb, Seed: 7})
		})
	}
}

// ---------------------------------------------------------------------------
// Public API overheads.

func BenchmarkAPI_Records(b *testing.B) {
	a := workload(benchN, uniSpec(benchN), 1)
	b.SetBytes(int64(len(a)) * 16)
	for i := 0; i < b.N; i++ {
		if _, err := Records(a, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPI_ByInt(b *testing.B) {
	items := make([]int, benchN)
	for i := range items {
		items[i] = i % 1000
	}
	b.SetBytes(int64(len(items)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := By(items, func(v int) int { return v }, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Section 3.2: semisort vs the naming + Rajasekaran–Reif integer-sort route.

func BenchmarkSec32_SemisortViaRR(b *testing.B) {
	a := workload(benchN, expSpec(benchN), 1)
	b.SetBytes(int64(len(a)) * 16)
	for i := 0; i < b.N; i++ {
		if _, err := rrsort.SemisortViaRR(0, a, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec32_SemisortTopDown(b *testing.B) {
	a := workload(benchN, expSpec(benchN), 1)
	benchSemisort(b, a, core.Config{Seed: 7})
}

func BenchmarkAPI_Sorter(b *testing.B) {
	a := workload(benchN, uniSpec(benchN), 1)
	s := NewSorter(&Config{Seed: 7})
	b.SetBytes(int64(len(a)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sort(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPI_StableBy(b *testing.B) {
	items := make([]int, benchN)
	for i := range items {
		items[i] = i % 1000
	}
	b.SetBytes(int64(len(items)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StableBy(items, func(v int) int { return v }, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPI_CountBy(b *testing.B) {
	items := make([]int, benchN)
	for i := range items {
		items[i] = i % 1000
	}
	b.SetBytes(int64(len(items)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CountBy(items, func(v int) int { return v }, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Fused collect-reduce (`-experiment reduce`, docs/AGGREGATION.md): the
// fused record-level entry points on their one route, the counting
// scatter, against the materialize-then-reduce shape they replace.

func benchReduceShared(b *testing.B, spec distgen.Spec, histogram bool) {
	b.Helper()
	a := workload(benchN, spec, 1)
	var ws core.Workspace
	sp := core.ReduceSpec{
		Fold:  func(acc, _, v uint64) uint64 { return acc + v },
		Merge: func(x, _, y, _ uint64) uint64 { return x + y },
	}
	b.SetBytes(int64(len(a)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := &core.Config{Seed: 9}
		var err error
		if histogram {
			_, _, _, err = core.HistogramShared(&ws, a, cfg)
		} else {
			_, _, _, err = core.ReduceShared(&ws, a, cfg, sp)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(a))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
}

func BenchmarkReduce_FusedCounting(b *testing.B) {
	benchReduceShared(b, expSpec(benchN), false)
}

func BenchmarkReduce_HistogramCounting(b *testing.B) {
	benchReduceShared(b, expSpec(benchN), true)
}

func BenchmarkReduce_Materialized(b *testing.B) {
	a := workload(benchN, expSpec(benchN), 1)
	var ws core.Workspace
	var groups []rec.Record
	b.SetBytes(int64(len(a)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := core.SemisortShared(&ws, a, &core.Config{Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		groups = groups[:0]
		for j := 0; j < len(out); {
			k, acc := out[j].Key, out[j].Value
			e := j + 1
			for e < len(out) && out[e].Key == k {
				acc += out[e].Value
				e++
			}
			groups = append(groups, rec.Record{Key: k, Value: acc})
			j = e
		}
	}
	b.ReportMetric(float64(len(a))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
}

func BenchmarkAPI_ReduceBy(b *testing.B) {
	items := make([]int, benchN)
	for i := range items {
		items[i] = i % 1000
	}
	red := Reduction[int, int]{
		Fold:  func(acc int, v int) int { return acc + v },
		Merge: func(x, y int) int { return x + y },
	}
	b.SetBytes(int64(len(items)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReduceBy(items, func(v int) int { return v }, red, nil); err != nil {
			b.Fatal(err)
		}
	}
}
