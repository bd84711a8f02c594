package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/rec"
	"repro/internal/seqsemi"
	"repro/internal/sortcmp"
	"repro/internal/sortint"
)

// representative distributions used throughout Sections 5.3–5.5: the
// uniform distribution with N = n (all light keys) and the exponential
// distribution with λ = n/10^3 (≈70% heavy keys).
func repExponential(n int) distgen.Spec {
	return distgen.Spec{Kind: distgen.Exponential, Param: float64(n) / 1e3}
}
func repUniform(n int) distgen.Spec {
	return distgen.Spec{Kind: distgen.Uniform, Param: float64(n)}
}

// heavyThreshold is the expected multiplicity at which a key becomes heavy
// under the default parameters (δ/p = 16·16).
const heavyThreshold = 256

// semisortTime runs the semisort and returns the best wall-clock time. A
// reused workspace keeps allocation out of the measurement, matching the
// paper's preallocated C++ implementation. The scatter is pinned to
// probing: these tables reproduce the paper's CAS-scatter numbers, which
// Auto would silently swap for the radix kernel (the other routes get
// their own head-to-head in RunScatter).
func semisortTime(a []rec.Record, procs, reps int, seed uint64) time.Duration {
	var ws core.Workspace
	return timeIt(reps, func() {
		cfg := &core.Config{Procs: procs, Seed: seed, ScatterStrategy: core.ScatterProbing}
		if _, _, err := core.SemisortWS(&ws, a, cfg); err != nil {
			panic(err)
		}
	})
}

// radixTime runs the parallel radix sort baseline (PBBS-style, same code
// the semisort uses on its sample) over a copy of a.
func radixTime(a []rec.Record, procs, reps int) time.Duration {
	buf := make([]rec.Record, len(a))
	scratch := make([]rec.Record, len(a))
	return timeIt(reps, func() {
		copy(buf, a)
		if err := sortint.RadixSortWith(procs, buf, scratch); err != nil {
			panic(err)
		}
	})
}

// RunTable1 regenerates Table 1: running time and speedup of the parallel
// semisort and the radix sort across the 17 distributions, for every entry
// of the Procs sweep.
func RunTable1(o Options) []*Table {
	o = o.withDefaults()
	settings := distgen.TableOneSettings(o.N)

	timeTab := &Table{
		Title:   fmt.Sprintf("Table 1 — semisort & radix sort times (s), n=%d", o.N),
		Headers: append([]string{"distribution", "param", "%heavy"}, procHeaders(o.Procs, "t")...),
	}
	speedTab := &Table{
		Title:   "Table 1 (cont.) — semisort speedup over 1 thread, radix time & speedup",
		Headers: append(append([]string{"distribution", "param"}, procHeaders(o.Procs[1:], "su")...), "radix_t1", "radix_tP", "radix_suP"),
	}

	for _, st := range settings {
		a := distgen.Generate(o.MaxProcs(), o.N, st.Spec, o.Seed)
		heavy := distgen.HeavyFraction(a, heavyThreshold)

		times := make([]time.Duration, len(o.Procs))
		for i, p := range o.Procs {
			times[i] = semisortTime(a, p, o.Reps, o.Seed+7)
		}
		rt1 := radixTime(a, 1, o.Reps)
		rtP := radixTime(a, o.MaxProcs(), o.Reps)

		row := []string{st.Name, fmt.Sprintf("%g", st.Param), pct(heavy)}
		for _, d := range times {
			row = append(row, secs(d))
		}
		timeTab.Rows = append(timeTab.Rows, row)

		srow := []string{st.Name, fmt.Sprintf("%g", st.Param)}
		for i := 1; i < len(times); i++ {
			srow = append(srow, ratio(times[0], times[i]))
		}
		srow = append(srow, secs(rt1), secs(rtP), ratio(rt1, rtP))
		speedTab.Rows = append(speedTab.Rows, srow)
	}
	timeTab.Notes = append(timeTab.Notes,
		"paper: Table 1, n=10^8 on 40 cores; %heavy spans 0..100 and semisort time varies ≤ ~20% across distributions")
	render(o, timeTab, speedTab)
	return []*Table{timeTab, speedTab}
}

func procHeaders(procs []int, prefix string) []string {
	h := make([]string, len(procs))
	for i, p := range procs {
		h[i] = fmt.Sprintf("%s(p=%d)", prefix, p)
	}
	return h
}

// breakdown runs the semisort at the given proc counts and reports the
// phase breakdown table used by Tables 2 and 3 (and Figure 3).
func breakdown(o Options, title string, spec distgen.Spec) *Table {
	a := distgen.Generate(o.MaxProcs(), o.N, spec, o.Seed)
	var ws core.Workspace
	best := func(procs int) core.Stats {
		var out core.Stats
		bestTotal := time.Duration(1<<63 - 1)
		for r := 0; r < o.Reps; r++ {
			// Probing pinned: the breakdown reproduces the paper's scatter.
			_, st, err := core.SemisortWS(&ws, a, &core.Config{Procs: procs, Seed: o.Seed + 7,
				ScatterStrategy: core.ScatterProbing})
			if err != nil {
				panic(err)
			}
			if st.Phases.Total() < bestTotal {
				bestTotal = st.Phases.Total()
				out = st
			}
		}
		return out
	}
	seq := best(1)
	par := best(o.MaxProcs())

	t := &Table{
		Title:   title,
		Headers: []string{"phase", "seq_time(s)", "seq_%", fmt.Sprintf("par_time(s,p=%d)", o.MaxProcs()), "par_%", "speedup"},
	}
	rows := []struct {
		name     string
		seq, par time.Duration
	}{
		{"sample and sort", seq.Phases.SampleSort, par.Phases.SampleSort},
		{"construct buckets", seq.Phases.Buckets, par.Phases.Buckets},
		{"scatter", seq.Phases.Scatter, par.Phases.Scatter},
		{"local sort", seq.Phases.LocalSort, par.Phases.LocalSort},
		{"pack", seq.Phases.Pack, par.Phases.Pack},
	}
	seqTotal := seq.Phases.Total()
	parTotal := par.Phases.Total()
	for _, r := range rows {
		t.AddRow(r.name, secs(r.seq), pct(float64(r.seq)/float64(seqTotal)),
			secs(r.par), pct(float64(r.par)/float64(parTotal)), ratio(r.seq, r.par))
	}
	t.AddRow("total", secs(seqTotal), "100.0", secs(parTotal), "100.0", ratio(seqTotal, parTotal))
	t.Notes = append(t.Notes,
		"paper: scatter dominates (~50-70% seq); on 40h cores sample-sort ~16-19x, scatter ~38-39x, local sort ~30-52x, pack ~12-19x")
	return t
}

// RunTable2 regenerates Table 2: the phase breakdown on the exponential
// distribution with λ = n/10^3.
func RunTable2(o Options) []*Table {
	o = o.withDefaults()
	t := breakdown(o, fmt.Sprintf("Table 2 — phase breakdown, exponential λ=n/10^3, n=%d", o.N), repExponential(o.N))
	render(o, t)
	return []*Table{t}
}

// RunTable3 regenerates Table 3: the phase breakdown on the uniform
// distribution with N = n.
func RunTable3(o Options) []*Table {
	o = o.withDefaults()
	t := breakdown(o, fmt.Sprintf("Table 3 — phase breakdown, uniform N=n, n=%d", o.N), repUniform(o.N))
	render(o, t)
	return []*Table{t}
}

// RunTable4 regenerates Table 4: semisort time, speedup and records/second
// versus input size on the two representative distributions, plus the
// scatter / pack / scatter+pack floor.
func RunTable4(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Table 4 — scaling with input size",
		Headers: []string{"n",
			"exp_seq(s)", "exp_par(s)", "exp_speedup", "exp_Mrec/s",
			"uni_seq(s)", "uni_par(s)", "uni_speedup", "uni_Mrec/s",
			"scatter(s)", "pack(s)", "scat+pack(s)"},
	}
	P := o.MaxProcs()
	for _, n := range o.Sizes {
		exp := distgen.Generate(P, n, repExponential(n), o.Seed)
		uni := distgen.Generate(P, n, repUniform(n), o.Seed+1)

		es := semisortTime(exp, 1, o.Reps, o.Seed+7)
		ep := semisortTime(exp, P, o.Reps, o.Seed+7)
		us := semisortTime(uni, 1, o.Reps, o.Seed+7)
		up := semisortTime(uni, P, o.Reps, o.Seed+7)

		var sp core.ScatterPackTimes
		timeIt(o.Reps, func() {
			_, sp = core.ScatterPack(P, uni, o.Seed+9)
		})

		mrecs := func(d time.Duration) string {
			return fmt.Sprintf("%.1f", float64(n)/d.Seconds()/1e6)
		}
		t.AddRow(n,
			secs(es), secs(ep), ratio(es, ep), mrecs(ep),
			secs(us), secs(up), ratio(us, up), mrecs(up),
			secs(sp.Scatter), secs(sp.Pack), secs(sp.Total()))
	}
	t.Notes = append(t.Notes,
		"paper: speedup grows with n (23->35 exp, 25->38 uni); semisort is 1.5-2x the scatter+pack floor, improving with n")
	render(o, t)
	return []*Table{t}
}

// RunTable5 regenerates Table 5: sequential and parallel times of the
// comparison-sort baselines (STL sort ≈ introsort / parallel quicksort,
// sample sort) and the radix sort, versus input size, on both
// representative distributions.
func RunTable5(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Table 5 — sorting baselines (seconds)",
		Headers: []string{"n", "dist",
			"stl_seq", "stl_par", "sample_seq", "sample_par", "radix_seq", "radix_par", "semisort_par"},
	}
	P := o.MaxProcs()
	for _, n := range o.Sizes {
		for _, d := range []struct {
			name string
			spec distgen.Spec
		}{
			{"exponential", repExponential(n)},
			{"uniform", repUniform(n)},
		} {
			a := distgen.Generate(P, n, d.spec, o.Seed)
			buf := make([]rec.Record, n)
			run := func(fn func([]rec.Record)) time.Duration {
				return timeIt(o.Reps, func() {
					copy(buf, a)
					fn(buf)
				})
			}
			stlSeq := run(func(b []rec.Record) { sortcmp.Introsort(b) })
			stlPar := run(func(b []rec.Record) { sortcmp.ParallelQuicksort(P, b) })
			sampSeq := run(func(b []rec.Record) { sortcmp.SampleSort(1, b) })
			sampPar := run(func(b []rec.Record) { sortcmp.SampleSort(P, b) })
			radSeq := radixTime(a, 1, o.Reps)
			radPar := radixTime(a, P, o.Reps)
			semi := semisortTime(a, P, o.Reps, o.Seed+7)

			t.AddRow(n, d.name, secs(stlSeq), secs(stlPar), secs(sampSeq), secs(sampPar),
				secs(radSeq), secs(radPar), secs(semi))
		}
	}
	t.Notes = append(t.Notes,
		"paper: comparison sorts win below ~2-5x10^7 records; semisort scales past them (linear vs n log n work); radix is slowest on 64-bit keys")
	render(o, t)
	return []*Table{t}
}

// RunSeqBaselines compares the semisort on one thread against the
// sequential baselines of Section 5.4 (the paper reports the parallel
// algorithm on one thread is ~20% faster than the chained hash table).
func RunSeqBaselines(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   fmt.Sprintf("Section 5.4 — sequential baselines, n=%d", o.N),
		Headers: []string{"dist", "semisort_1t(s)", "chained(s)", "openaddr(s)", "twophase(s)", "gomap(s)", "chained/semisort"},
	}
	for _, d := range []struct {
		name string
		spec distgen.Spec
	}{
		{"exponential", repExponential(o.N)},
		{"uniform", repUniform(o.N)},
	} {
		a := distgen.Generate(o.MaxProcs(), o.N, d.spec, o.Seed)
		semi := semisortTime(a, 1, o.Reps, o.Seed+7)
		ch := timeIt(o.Reps, func() { seqsemi.Chained(a) })
		oa := timeIt(o.Reps, func() { seqsemi.OpenAddressing(a) })
		tp := timeIt(o.Reps, func() { seqsemi.TwoPhase(a) })
		gm := timeIt(o.Reps, func() { seqsemi.GoMap(a) })
		t.AddRow(d.name, secs(semi), secs(ch), secs(oa), secs(tp), secs(gm), ratio(ch, semi))
	}
	t.Notes = append(t.Notes, "paper: semisort on 1 thread ≈ 1.2x faster than the chained hash table; other baselines slower still")
	render(o, t)
	return []*Table{t}
}

func render(o Options, tables ...*Table) {
	for _, t := range tables {
		t.Render(o.Out)
	}
}
