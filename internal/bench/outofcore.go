package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/external"
	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/fault"
	"repro/internal/rec"
)

// RunOutOfCore measures the out-of-core shuffle pipeline against the
// in-memory semisort on the same records. Three timed modes:
//
//   - in-memory: one core.SemisortWS call over the whole input — the
//     per-record throughput ceiling the shuffle is paying two disk passes
//     to approach.
//   - pipelined: the async writer pool + prefetched read-back.
//   - pipelined+flate: the same with per-block DEFLATE, trading writer
//     CPU for spill bytes (the bytes column shows the shrink).
//
// A final untimed row demonstrates the resume contract: a resumable run
// is killed by an injected read fault partway through emission, then
// finished with ResumeShuffler; the row reports how many partitions the
// resumed run skipped and what fraction of the spill it re-read.
//
// The design target: with spare cores and real disk latency to hide,
// pipelined ≥ 50% of the in-memory per-record throughput on
// duplicate-moderate inputs sized several times the per-partition budget.
// EXPERIMENTS.md records the last table of the synchronous (serial)
// shuffle this pipeline replaced.
func RunOutOfCore(o Options) []*Table {
	o = o.withDefaults()
	P := o.MaxProcs()
	a := distgen.Generate(P, o.N, repExponential(o.N), o.Seed+11)

	// 8 partitions: the input is 8x the per-partition budget, the
	// "several times memory" regime the shuffle exists for, while small
	// enough that a CI-sized run still has real per-partition work.
	const partitions = 8
	mkCfg := func() external.Config {
		var c external.Config
		c.Partitions = partitions
		c.Semisort.Procs = P
		c.Semisort.Seed = o.Seed + 7
		return c
	}

	var ws core.Workspace
	inMem := timeIt(o.Reps, func() {
		if _, _, err := core.SemisortWS(&ws, a, &core.Config{Procs: P, Seed: o.Seed + 7}); err != nil {
			panic(fmt.Sprintf("outofcore in-memory: %v", err))
		}
	})

	runShuffle := func(cfg external.Config) (time.Duration, external.ShuffleStats) {
		var st external.ShuffleStats
		best := timeIt(o.Reps, func() {
			sh, err := external.NewShuffler(&cfg)
			if err != nil {
				panic(fmt.Sprintf("outofcore: %v", err))
			}
			if err := sh.AddBatch(a); err != nil {
				panic(fmt.Sprintf("outofcore add: %v", err))
			}
			var n int64
			if err := sh.ForEachGroup(func(key uint64, g []rec.Record) error {
				n += int64(len(g))
				return nil
			}); err != nil {
				panic(fmt.Sprintf("outofcore groups: %v", err))
			}
			if n != int64(len(a)) {
				panic(fmt.Sprintf("outofcore: emitted %d of %d records", n, len(a)))
			}
			st = sh.Stats()
		})
		return best, st
	}

	pipeTime, pipeSt := runShuffle(mkCfg())

	flateCfg := mkCfg()
	flateCfg.Compression = external.CompressFlate
	flateTime, flateSt := runShuffle(flateCfg)

	mrecs := func(d time.Duration) string {
		return fmt.Sprintf("%.2f", float64(o.N)/d.Seconds()/1e6)
	}
	ofInMem := func(d time.Duration) string {
		return pct(inMem.Seconds() / d.Seconds())
	}
	spillMB := func(st external.ShuffleStats) string {
		return fmt.Sprintf("%.1f", float64(st.SpillBytes)/(1<<20))
	}

	tab := &Table{
		Title: fmt.Sprintf("Out-of-core shuffle — n=%d, p=%d, %d partitions, duplicate-moderate keys",
			o.N, P, partitions),
		Headers: []string{"mode", "time(s)", "Mrec/s", "of-inmem%",
			"spill(MiB)", "spill-stalls", "prefetch-stalls"},
	}
	tab.AddRow("in-memory", secs(inMem), mrecs(inMem), "100.0", "-", "-", "-")
	tab.AddRow("pipelined", secs(pipeTime), mrecs(pipeTime), ofInMem(pipeTime),
		spillMB(pipeSt), pipeSt.SpillStalls, pipeSt.PrefetchStalls)
	tab.AddRow("pipelined+flate", secs(flateTime), mrecs(flateTime), ofInMem(flateTime),
		spillMB(flateSt), flateSt.SpillStalls, flateSt.PrefetchStalls)

	// Resume demonstration (untimed: the interesting numbers are the
	// skip/re-read counters, not the wall clock of a faulted run).
	resumeCfg := mkCfg()
	resumeCfg.Resumable = true
	sh, err := external.NewShuffler(&resumeCfg)
	if err != nil {
		panic(fmt.Sprintf("outofcore resume: %v", err))
	}
	if err := sh.AddBatch(a); err != nil {
		panic(fmt.Sprintf("outofcore resume add: %v", err))
	}
	dir := sh.Dir()
	// Kill the emission partway: fail a segment read a few partitions in.
	fault.Enable(fault.New(1).Arm(fault.SpillRead, partitions/2, 1))
	err = sh.ForEachGroup(func(uint64, []rec.Record) error { return nil })
	fault.Disable()
	if err == nil {
		panic("outofcore resume: injected read fault did not fail the run")
	}
	crashed := sh.Stats()
	rs, err := external.ResumeShuffler(dir, &resumeCfg)
	if err != nil {
		panic(fmt.Sprintf("outofcore ResumeShuffler: %v", err))
	}
	var resumedRecs int64
	if err := rs.ForEachGroup(func(key uint64, g []rec.Record) error {
		resumedRecs += int64(len(g))
		return nil
	}); err != nil {
		panic(fmt.Sprintf("outofcore resumed groups: %v", err))
	}
	resumed := rs.Stats()
	reread := "-"
	if crashed.SpillBytes > 0 {
		reread = pct(float64(resumed.BytesRead) / float64(crashed.SpillBytes))
	}
	tab.AddRow(fmt.Sprintf("resume (skipped %d/%d parts, re-read %s%% of spill)",
		resumed.PartitionsSkipped, partitions, reread),
		"-", "-", "-", spillMB(crashed), "-", "-")

	tab.Notes = append(tab.Notes,
		fmt.Sprintf("expectation with spare cores and real disk latency to hide: pipelined >= 50%% of-inmem; this host has GOMAXPROCS=%d, and with tmp-backed spill there is little disk latency to overlap", runtime.GOMAXPROCS(0)),
		"spill-stalls: Adds that waited for a free staging block (ingest outran the disk); prefetch-stalls: partitions the emit loop waited for (disk outran the sort)",
		"the resume row kills a resumable run with an injected read fault mid-emission, then finishes it with ResumeShuffler; emitted partitions are skipped without re-reading their bytes")
	render(o, tab)
	return []*Table{tab}
}
