package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/obsv"
)

// RunObserve runs the semisort under full instrumentation — a trace
// Observer plus the scheduler counters — and renders what the paper's
// clean timing tables cannot show: the span-level phase breakdown
// (including any retry attempts) and how the fork–join runtime moved
// the records. With Options.TracePath set it also writes the JSON-lines
// trace that the docs/OBSERVABILITY.md workflow consumes.
func RunObserve(o Options) []*Table {
	o = o.withDefaults()
	P := o.MaxProcs()
	a := distgen.Generate(P, o.N, repUniform(o.N), o.Seed)

	var col obsv.Collector
	var obs obsv.Observer = &col
	var sink *obsv.JSONSink
	if o.TracePath != "" {
		f, err := os.Create(o.TracePath)
		if err != nil {
			panic(fmt.Errorf("observe: create trace file: %w", err))
		}
		defer f.Close()
		sink = obsv.NewJSONSink(f)
		obs = obsv.Multi(&col, sink)
	}

	var ws core.Workspace
	var best core.Stats
	bestTotal := time.Duration(1<<63 - 1)
	for r := 0; r < o.Reps; r++ {
		_, st, err := core.SemisortWS(&ws, a, &core.Config{Procs: P, Seed: o.Seed + 7, Observer: obs,
			ScatterStrategy: core.ScatterProbing})
		if err != nil {
			panic(err)
		}
		if st.Phases.Total() < bestTotal {
			bestTotal = st.Phases.Total()
			best = st
		}
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			panic(fmt.Errorf("observe: write trace: %w", err))
		}
	}

	// Per-phase span aggregation over every attempt of every rep.
	type agg struct {
		count int
		min   time.Duration
		sum   time.Duration
	}
	phases := map[obsv.Phase]*agg{}
	for _, s := range col.Spans() {
		g := phases[s.Phase]
		if g == nil {
			g = &agg{min: s.Duration}
			phases[s.Phase] = g
		}
		g.count++
		g.sum += s.Duration
		if s.Duration < g.min {
			g.min = s.Duration
		}
	}

	spanTable := &Table{
		Title:   fmt.Sprintf("observe: phase spans (uniform, p=%d)", P),
		Headers: []string{"phase", "spans", "min(s)", "mean(s)", "share_best_%"},
	}
	bestShares := map[obsv.Phase]time.Duration{
		obsv.PhaseSample:    best.Phases.SampleSort,
		obsv.PhaseScatter:   best.Phases.Scatter,
		obsv.PhaseLocalSort: best.Phases.LocalSort,
		obsv.PhasePack:      best.Phases.Pack,
	}
	for ph := obsv.PhaseSample; ph <= obsv.PhaseFallback; ph++ {
		g := phases[ph]
		if g == nil {
			continue
		}
		share := "-"
		if d, ok := bestShares[ph]; ok && bestTotal > 0 {
			share = pct(float64(d) / float64(bestTotal))
		}
		spanTable.AddRow(ph.String(), g.count, secs(g.min),
			secs(g.sum/time.Duration(g.count)), share)
	}
	spanTable.Notes = append(spanTable.Notes,
		fmt.Sprintf("best rep: attempts=%d retries=%d fallback=%v (spans cover all %d reps)",
			best.Attempts, best.Retries, best.FallbackUsed, o.Reps),
		"classify+allocate shares are folded into the bucket-construction time; see share of scatter vs the paper's ~50-70%")

	schedTable := &Table{
		Title:   fmt.Sprintf("observe: scheduler counters (best rep, p=%d)", P),
		Headers: []string{"counter", "value"},
	}
	s := best.Sched
	schedTable.AddRow("chunks_claimed", s.ChunksClaimed)
	schedTable.AddRow("limiter_spawns", s.LimiterSpawns)
	schedTable.AddRow("limiter_inline", s.LimiterInline)
	schedTable.AddRow("limiter_high_water", s.LimiterHighWater)
	schedTable.Notes = append(schedTable.Notes,
		"counters are the delta of one semisort call; see docs/OBSERVABILITY.md for each counter's meaning")

	render(o, spanTable, schedTable)
	return []*Table{spanTable, schedTable}
}
