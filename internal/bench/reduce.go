package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/rec"
)

// RunReduce is the fused collect-reduce experiment (docs/AGGREGATION.md):
// it times the fused core.ReduceShared — which folds values into per-group
// accumulators during the scatter and local phases instead of packing
// grouped records — against the materialize-then-reduce reference
// (core.SemisortShared followed by a sequential run-walk fold over the
// grouped output) on the duplicate-heavy distributions where fusion pays,
// plus the all-light uniform control. A second table does the same for
// the counting special case, core.HistogramShared, which reuses the
// counting scatter's pass-1 histogram for heavy keys and never stages
// grouped output at all.
func RunReduce(o Options) []*Table {
	o = o.withDefaults()
	reduce := reduceTable(o, false)
	hist := reduceTable(o, true)
	render(o, reduce, hist)
	return []*Table{reduce, hist}
}

// reduceDists are the workloads for the fused-reduce head-to-head: two
// duplicate-heavy shapes (where the fold collapses most records into a
// few accumulators and the materialized arm pays for staging + packing +
// a second pass over n records) and the all-light uniform control (where
// fusion degenerates to a per-segment fold and the two arms should be
// close).
func reduceDists(n int) []struct {
	name string
	spec distgen.Spec
} {
	return []struct {
		name string
		spec distgen.Spec
	}{
		{"exponential", repExponential(n)},
		{"zipfian", distgen.Spec{Kind: distgen.Zipfian, Param: 1e4}},
		{"uniform", repUniform(n)},
	}
}

// sumReduceSpec is the benchmark fold: per-group value sums, the
// commutative monoid every arm of the experiment computes.
func sumReduceSpec() core.ReduceSpec {
	return core.ReduceSpec{
		Fold:  func(acc, _, v uint64) uint64 { return acc + v },
		Merge: func(a, _, b, _ uint64) uint64 { return a + b },
	}
}

// materializedReduce is the reference arm: semisort into the workspace's
// shared output, then fold each run sequentially into dst (reused across
// reps so the arm, like the fused one, is allocation-free in steady
// state). Returns the folded groups for the cross-check.
func materializedReduce(ws *core.Workspace, a []rec.Record, cfg *core.Config, dst []rec.Record) ([]rec.Record, error) {
	out, _, err := core.SemisortShared(ws, a, cfg)
	if err != nil {
		return nil, err
	}
	dst = dst[:0]
	for i := 0; i < len(out); {
		k, acc := out[i].Key, out[i].Value
		j := i + 1
		for j < len(out) && out[j].Key == k {
			acc += out[j].Value
			j++
		}
		dst = append(dst, rec.Record{Key: k, Value: acc})
		i = j
	}
	return dst, nil
}

// materializedCount is the reference arm for Histogram: semisort, then
// walk runs counting lengths.
func materializedCount(ws *core.Workspace, a []rec.Record, cfg *core.Config, dst []rec.Record) ([]rec.Record, error) {
	out, _, err := core.SemisortShared(ws, a, cfg)
	if err != nil {
		return nil, err
	}
	dst = dst[:0]
	for i := 0; i < len(out); {
		k := out[i].Key
		j := i + 1
		for j < len(out) && out[j].Key == k {
			j++
		}
		dst = append(dst, rec.Record{Key: k, Value: uint64(j - i)})
		i = j
	}
	return dst, nil
}

func reduceTable(o Options, histogram bool) *Table {
	P := o.MaxProcs()
	op, ref := "reduce (Σ value)", "semisort + run-walk Σ"
	if histogram {
		op, ref = "histogram", "semisort + run-walk count"
	}
	tab := &Table{
		Title: fmt.Sprintf("Fused %s vs materialize-then-reduce, n=%d", op, o.N),
		Headers: []string{"dist", fmt.Sprintf("fused t(p=%d)", P),
			fmt.Sprintf("mat t(p=%d)", P), "mat/fused", "fused t(p=1)", "groups"},
	}
	for _, d := range reduceDists(o.N) {
		a := distgen.Generate(P, o.N, d.spec, o.Seed)
		groups := 0
		fusedRun := func(procs int) time.Duration {
			var ws core.Workspace
			sp := sumReduceSpec()
			return timeIt(o.Reps, func() {
				cfg := &core.Config{Procs: procs, Seed: o.Seed + 7}
				var (
					out []rec.Record
					err error
				)
				if histogram {
					out, _, _, err = core.HistogramShared(&ws, a, cfg)
				} else {
					out, _, _, err = core.ReduceShared(&ws, a, cfg, sp)
				}
				if err != nil {
					panic(err)
				}
				groups = len(out)
			})
		}
		fusedP := fusedRun(P)
		fused1 := fusedRun(1)

		var ws core.Workspace
		dst := make([]rec.Record, 0, groups)
		mat := timeIt(o.Reps, func() {
			cfg := &core.Config{Procs: P, Seed: o.Seed + 7}
			var err error
			if histogram {
				dst, err = materializedCount(&ws, a, cfg, dst)
			} else {
				dst, err = materializedReduce(&ws, a, cfg, dst)
			}
			if err != nil {
				panic(err)
			}
		})
		if len(dst) != groups {
			panic(fmt.Sprintf("bench: fused %s found %d groups, materialized found %d", op, groups, len(dst)))
		}
		tab.AddRow(d.name, secs(fusedP), secs(mat), ratio(mat, fusedP), secs(fused1), groups)
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("fused arm: the counting route folds during scatter/local phases; materialized arm: %s (the radix kernel's semisort), sequential after the sort", ref),
		"both arms reuse warm workspaces; the delta is staging+packing grouped records and the extra pass over n",
		"uniform (all light) is the control: fusion degenerates to per-segment folds and the arms should be close")
	if histogram {
		tab.Notes = append(tab.Notes,
			"the fused histogram reuses the pass-1 histogram for heavy keys — no grouped staging at all")
	}
	return tab
}
