package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/rec"
)

// RunLocalSort is the Phase 4 experiment added with the cache-conscious
// hot-path work: (1) a kernel head-to-head timing the arena-backed
// local-sort kernels against the legacy per-bucket-allocating
// implementations on bucket-shaped segments, and (2) a scheduling
// comparison timing Phase 4 under a skewed input — a dominant block of
// adjacent light buckets — with the size-aware schedule versus the
// uniform-chunk ablation (Config.UniformLocalSortChunks).
func RunLocalSort(o Options) []*Table {
	o = o.withDefaults()
	P := o.MaxProcs()
	kernels := kernelTable(o)
	sched := schedTable(o, P)
	render(o, kernels, sched)
	return []*Table{kernels, sched}
}

// kernelSegs builds nseg segments of size segsz shaped like light
// buckets: near-uniform hashed keys with a bounded number of distinct
// values per segment, so the counting kernel's naming table and the
// bucket kernel's interpolation both do representative work.
func kernelSegs(nseg, segsz, distinct int, seed uint64) [][]rec.Record {
	rng := hash.NewRNG(seed)
	flat := make([]rec.Record, nseg*segsz)
	segs := make([][]rec.Record, nseg)
	for s := range segs {
		keys := make([]uint64, distinct)
		for d := range keys {
			keys[d] = rng.Rand(uint64(s)<<20 + uint64(d))
		}
		seg := flat[s*segsz : (s+1)*segsz]
		for i := range seg {
			seg[i] = rec.Record{Key: keys[rng.Rand(uint64(s)<<40+uint64(i))%uint64(distinct)], Value: uint64(i)}
		}
		segs[s] = seg
	}
	return segs
}

func kernelTable(o Options) *Table {
	const segsz, distinct = 256, 24
	nseg := o.N / segsz
	if nseg < 1 {
		nseg = 1
	}
	pristine := kernelSegs(nseg, segsz, distinct, o.Seed)
	work := kernelSegs(nseg, segsz, distinct, o.Seed) // same shape; overwritten per rep

	tab := &Table{
		Title: fmt.Sprintf("Phase 4 kernels — arena vs per-bucket allocation, %d segs × %d recs, %d distinct keys/seg",
			nseg, segsz, distinct),
		Headers: []string{"kernel", "arena t(s)", "legacy t(s)", "legacy/arena"},
	}
	for _, kind := range []core.LocalSortKind{core.LocalSortHybrid, core.LocalSortCounting, core.LocalSortBucket} {
		run := func(legacy bool) time.Duration {
			return timeIt(o.Reps, func() {
				for s := range work {
					copy(work[s], pristine[s])
				}
				core.LocalSortKernel(kind, legacy, work)
			})
		}
		arena := run(false)
		legacy := run(true)
		tab.AddRow(kind.String(), secs(arena), secs(legacy), ratio(legacy, arena))
	}
	tab.Notes = append(tab.Notes,
		"both arms include an identical copy-in per rep; the delta is the kernel itself",
		"arena kernels reuse one worker arena across segments (flat naming table, grow-once scratch) — the Phase 4 steady state; legacy allocates a map + label/scratch/count arrays per segment")
	return tab
}

// skewedInput builds the scheduling workload: three quarters of the
// records carry distinct keys confined to the first 1/16 of the
// keyspace, so — at any light-range count ≥ 16 — a contiguous block of
// 1/16 of the light ranges holds ~75% of the data, each dense enough to
// survive range merging as its own bucket; the rest is uniform over the
// full keyspace. No key repeats often enough to go heavy, so Phase 4
// sees the skew undiluted. Uniform chunking — bucket count per worker,
// sizes ignored — hands the entire hot block to one worker, serializing
// most of Phase 4 on one goroutine no matter how many cores are free;
// the size-aware schedule splits the block across ranges. (A block of
// buckets rather than one dominant bucket, because a single bucket is
// an unsplittable unit for any schedule.)
func skewedInput(n int, seed uint64) []rec.Record {
	rng := hash.NewRNG(seed)
	a := make([]rec.Record, n)
	for i := range a {
		k := rng.Rand(uint64(i))
		if i%4 != 0 {
			k >>= 4 // 75% of records in the first 1/16 of the keyspace
		}
		a[i] = rec.Record{Key: k, Value: uint64(i)}
	}
	return a
}

func schedTable(o Options, P int) *Table {
	a := skewedInput(o.N, o.Seed+3)
	tab := &Table{
		Title: fmt.Sprintf("Phase 4 scheduling under skew — dominant block of light buckets (~75%% of records), n=%d, p=%d", o.N, P),
		Headers: []string{"schedule", "ranges", "localsort(s)", "total(s)", "vs uniform"},
	}
	var ws core.Workspace
	var uniformLS time.Duration
	for _, uniform := range []bool{true, false} {
		// Probing pinned: the default planner sends this all-light input
		// to the dovetail route, whose Phase 4 has no bucket schedule.
		cfg := &core.Config{Procs: P, Seed: o.Seed + 7, UniformLocalSortChunks: uniform,
			ScatterStrategy: core.ScatterProbing}
		var stats core.Stats
		total := timeIt(o.Reps, func() {
			out, st, err := core.SemisortWS(&ws, a, cfg)
			if err != nil {
				panic(fmt.Sprintf("localsort experiment (uniform=%v): %v", uniform, err))
			}
			if !rec.IsSemisorted(out) {
				panic("localsort experiment: output not semisorted")
			}
			stats = st
		})
		name := "size-aware"
		if uniform {
			name = "uniform chunks"
			uniformLS = stats.Phases.LocalSort
		}
		tab.AddRow(name, stats.LocalSortRanges, secs(stats.Phases.LocalSort),
			secs(total), ratio(uniformLS, stats.Phases.LocalSort))
	}
	tab.Notes = append(tab.Notes,
		"uniform chunks split the light buckets into one equal-bucket-count range per worker; the hot block is a contiguous run of buckets, so one worker draws ~75% of the records and Phase 4 serializes behind it",
		"size-aware ranges cut a prefix sum of bucket weights into balanced pieces (prim.BalancedBounds), spreading the hot block across ranges")
	return tab
}
