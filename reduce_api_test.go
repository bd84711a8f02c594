package semisort

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
)

// sumReducer folds Values into per-key sums — the canonical commutative
// monoid used throughout the differential tests.
var sumReducer = Reducer{
	Fold:  func(acc, v uint64) uint64 { return acc + v },
	Merge: func(a, b uint64) uint64 { return a + b },
}

// refReduce is the plain-map reference for record-level reductions.
func refReduce(a []Record) (sums, counts map[uint64]uint64) {
	sums = map[uint64]uint64{}
	counts = map[uint64]uint64{}
	for _, r := range a {
		sums[r.Key] += r.Value
		counts[r.Key]++
	}
	return sums, counts
}

// TestReduceRecordsDifferential cross-checks the fused record-level
// reduce against the plain-map reference across every scatter strategy,
// proc count and key distribution: the fused path must find exactly the
// reference's groups with exactly its accumulators, regardless of how
// records were placed or how partial accumulators were merged.
// fusedStrategies are the ScatterStrategy values the fused tests cover:
// the default, and an explicit ScatterProbing that a fused call ignores
// (it still runs counting; TestRouteTable pins the resolution).
var fusedStrategies = []ScatterStrategy{ScatterAuto, ScatterProbing}

func TestReduceRecordsDifferential(t *testing.T) {
	dists := []struct {
		name string
		a    []Record
	}{
		{"skewed", mkRecords(30000, 120, 9)},    // heavy-duplicate
		{"spread", mkRecords(30000, 30000, 10)}, // mostly light
		{"single", mkRecords(20000, 1, 11)},     // one giant group
		{"mixed", append(mkRecords(15000, 40, 12), mkRecords(15000, 15000, 13)...)},
	}
	for _, d := range dists {
		wantSum, wantCount := refReduce(d.a)
		for _, strat := range fusedStrategies {
			for _, procs := range []int{1, 4} {
				cfg := &Config{Procs: procs, Seed: 21, ScatterStrategy: strat}
				out, err := ReduceRecords(d.a, sumReducer, cfg)
				if err != nil {
					t.Fatalf("%s/%v/p=%d: %v", d.name, strat, procs, err)
				}
				checkAgainst(t, d.name, out, wantSum)
				hist, err := Histogram(d.a, cfg)
				if err != nil {
					t.Fatalf("%s/%v/p=%d histogram: %v", d.name, strat, procs, err)
				}
				checkAgainst(t, d.name+"/hist", hist, wantCount)
			}
		}
	}
}

func checkAgainst(t *testing.T, name string, out []Record, want map[uint64]uint64) {
	t.Helper()
	if len(out) != len(want) {
		t.Fatalf("%s: %d groups, want %d", name, len(out), len(want))
	}
	seen := map[uint64]bool{}
	for _, r := range out {
		if seen[r.Key] {
			t.Fatalf("%s: key %d appears twice", name, r.Key)
		}
		seen[r.Key] = true
		if w, ok := want[r.Key]; !ok || r.Value != w {
			t.Fatalf("%s: key %d acc = %d, want %d", name, r.Key, r.Value, w)
		}
	}
}

// TestReduceByFusedMatchesMaterialized runs the same reduction through
// the fused path (Merge set) and the materialize-then-fold path (Merge
// nil) and demands identical maps — the differential that gates the
// fused generic front-end.
func TestReduceByFusedMatchesMaterialized(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	type ev struct {
		k int
		v int
	}
	items := make([]ev, 40000)
	for i := range items {
		items[i] = ev{k: r.Intn(300), v: r.Intn(100)}
	}
	key := func(e ev) int { return e.k }
	fold := func(acc int, e ev) int { return acc + e.v }

	for _, strat := range fusedStrategies {
		cfg := &Config{Procs: 4, Seed: 17, ScatterStrategy: strat}
		fused, err := ReduceBy(items, key, Reduction[ev, int]{
			Fold:  fold,
			Merge: func(a, b int) int { return a + b },
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := ReduceBy(items, key, Reduction[ev, int]{Fold: fold}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(fused) != len(mat) {
			t.Fatalf("%v: fused %d groups, materialized %d", strat, len(fused), len(mat))
		}
		for k, v := range mat {
			if fused[k] != v {
				t.Fatalf("%v: group %d fused = %d, materialized = %d", strat, k, fused[k], v)
			}
		}
	}
}

// TestReduceByNonCommutativeMergeDiverges documents what the
// differential harness above detects: a Merge that is not commutative/
// associative with Fold gives scheduling-dependent results, so the fused
// and materialized paths disagree. The fold here is an order-sensitive
// polynomial hash; on a heavy-duplicate input at several workers, at
// least one group's fused accumulator must differ from the left-to-right
// materialized fold. (This is why Reduction documents the commutative-
// monoid requirement.)
func TestReduceByNonCommutativeMergeDiverges(t *testing.T) {
	items := make([]int, 40000)
	for i := range items {
		items[i] = i % 20 // 20 heavy groups, 2000 records each
	}
	key := func(v int) int { return v }
	fold := func(acc int, v int) int { return acc*31 + v + 1 }

	cfg := &Config{Procs: 4, Seed: 23}
	fused, err := ReduceBy(items, key, Reduction[int, int]{
		Fold:  fold,
		Merge: func(a, b int) int { return a*31 + b },
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := ReduceBy(items, key, Reduction[int, int]{Fold: fold}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	for k, v := range mat {
		if fused[k] != v {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatal("non-commutative merge produced identical results; differential harness cannot detect order sensitivity")
	}
}

// TestCountByInjectedHashCollision drives the fused generic path through
// its Las Vegas rehash: one injected 64-bit hash collision must be
// survived by retrying with a fresh seed, persistent collisions must
// surface as a typed error, and either way the counts must never be
// silently wrong.
func TestCountByInjectedHashCollision(t *testing.T) {
	items := make([]string, 20000)
	for i := range items {
		items[i] = strings.Repeat("x", i%41+1)
	}
	key := func(s string) int { return len(s) }

	fault.Enable(fault.New(9).Arm(fault.HashCollision, 0, 1))
	got, err := CountBy(items, key, &Config{Procs: 2})
	fault.Disable()
	if err != nil {
		t.Fatalf("CountBy after one injected collision: %v", err)
	}
	want := map[int]int{}
	for _, s := range items {
		want[len(s)]++
	}
	if len(got) != len(want) {
		t.Fatalf("groups = %d, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("count[%d] = %d, want %d", k, got[k], c)
		}
	}

	inj := fault.New(9).Arm(fault.HashCollision, 0, 1000)
	fault.Enable(inj)
	_, err = CountBy(items, key, &Config{Procs: 2})
	fault.Disable()
	if err == nil || !strings.Contains(err.Error(), "hash collision") {
		t.Fatalf("persistent collisions: err = %v, want hash collision error", err)
	}
	if inj.Fired(fault.HashCollision) < 2 {
		t.Errorf("collision point fired %d times, want one per retry", inj.Fired(fault.HashCollision))
	}
}

// sumItem is SumBy's differential input: a key and a signed value wide
// enough to overflow the narrow sums.
type sumItem struct{ k, v int }

// sumItems draws n items over keys: half the items share eight heavy
// keys, the rest spread over the remaining keys, and values span
// [-128, 128) so int8 and uint16 sums wrap.
func sumItems(n, keys int, seed int64) []sumItem {
	r := rand.New(rand.NewSource(seed))
	items := make([]sumItem, n)
	for i := range items {
		k := r.Intn(keys)
		if i%2 == 0 {
			k = r.Intn(8)
		}
		items[i] = sumItem{k: k, v: r.Intn(256) - 128}
	}
	return items
}

// checkSumBy runs SumBy and the materialized ReduceBy reference (Merge
// nil) over items with val as the measure, under both fusedStrategies at
// one and four workers, and demands identical maps. The
// values must make the sum order-independent in N (every integer kind;
// exactly representable floats), so identical means bit-identical.
func checkSumBy[N Number](t *testing.T, name string, items []sumItem, val func(sumItem) N) {
	t.Helper()
	key := func(e sumItem) int { return e.k }
	for _, strat := range fusedStrategies {
		for _, procs := range []int{1, 4} {
			cfg := &Config{Procs: procs, Seed: 29, ScatterStrategy: strat}
			got, err := SumBy(items, key, val, cfg)
			if err != nil {
				t.Fatalf("%s/%v/p=%d: %v", name, strat, procs, err)
			}
			want, err := ReduceBy(items, key, Reduction[sumItem, N]{
				Fold: func(acc N, e sumItem) N { return acc + val(e) },
			}, cfg)
			if err != nil {
				t.Fatalf("%s/%v/p=%d reference: %v", name, strat, procs, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%v/p=%d: %d groups, want %d", name, strat, procs, len(got), len(want))
			}
			for k, w := range want {
				if g, ok := got[k]; !ok || g != w {
					t.Fatalf("%s/%v/p=%d: sum[%d] = %v, want %v", name, strat, procs, k, g, w)
				}
			}
		}
	}
}

// TestSumByMatchesMaterializedAcrossKinds is the number-kind
// differential for SumBy's uint64 accumulator: integer kinds must wrap
// exactly as a sum in N does (the int8 and uint16 sums overflow), and
// floats keep their own width.
func TestSumByMatchesMaterializedAcrossKinds(t *testing.T) {
	items := sumItems(30000, 3000, 37)
	checkSumBy(t, "int8", items, func(e sumItem) int8 { return int8(e.v) })
	checkSumBy(t, "uint16", items, func(e sumItem) uint16 { return uint16(e.v * 251) })
	checkSumBy(t, "int32", items, func(e sumItem) int32 { return int32(e.v) << 20 })
	checkSumBy(t, "int", items, func(e sumItem) int { return e.v })
	checkSumBy(t, "uint64", items, func(e sumItem) uint64 { return uint64(e.v) * 0x9e3779b97f4a7c15 })
	// Halves of small integers: every partial sum is exact in float32,
	// so any fold order gives the reference's result.
	checkSumBy(t, "float32", items, func(e sumItem) float32 { return float32(e.v) / 2 })
	checkSumBy(t, "float64", items, func(e sumItem) float64 { return float64(e.v) / 4 })

	type myInt8 int8 // a named kind sums like its underlying type
	checkSumBy(t, "myInt8", items, func(e sumItem) myInt8 { return myInt8(e.v) })

	// Overflow really happens: some int8 group sum differs from its
	// exact sum, so the wrap above was exercised.
	exact := map[int]int{}
	for _, e := range items {
		exact[e.k] += e.v
	}
	if exact[0] == int(int8(exact[0])) {
		t.Fatalf("heavy group sum %d fits int8; the input does not exercise wrap", exact[0])
	}
}

// TestSumByFloat32Precision shows SumBy adds float32 values at float32
// precision, not in a wider accumulator: 2^24 followed by ones stays at
// 2^24 in float32 (each +1 rounds away), while a float64 sum would keep
// every one. One worker on the counting strategy folds the single heavy
// group in input order, so the float32 result is the sequential one.
func TestSumByFloat32Precision(t *testing.T) {
	items := make([]float32, 4096)
	for i := range items {
		items[i] = 1
	}
	items[0] = 1 << 24
	var seq32 float32
	var seq64 float64
	for _, v := range items {
		seq32 += v
		seq64 += float64(v)
	}
	got, err := SumBy(items, func(float32) int { return 0 }, func(v float32) float32 { return v },
		&Config{Procs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != seq32 {
		t.Fatalf("float32 sum = %v, want the float32 sequential sum %v", got[0], seq32)
	}
	if float64(got[0]) == seq64 {
		t.Fatalf("float32 sum = %v equals the float64 sum; the accumulator is wider than float32", got[0])
	}
}

// TestSumByInjectedHashCollision is TestCountByInjectedHashCollision for
// SumBy's own spec: the fold must still compare every record's key with
// its representative's, one injected collision must be survived by a
// rehash with an exact result, and persistent collisions must surface
// as an error.
func TestSumByInjectedHashCollision(t *testing.T) {
	items := make([]string, 20000)
	for i := range items {
		items[i] = strings.Repeat("x", i%41+1)
	}
	key := func(s string) int { return len(s) }
	val := func(s string) int64 { return int64(len(s)) * 3 }

	fault.Enable(fault.New(9).Arm(fault.HashCollision, 0, 1))
	got, err := SumBy(items, key, val, &Config{Procs: 2})
	fault.Disable()
	if err != nil {
		t.Fatalf("SumBy after one injected collision: %v", err)
	}
	want := map[int]int64{}
	for _, s := range items {
		want[len(s)] += val(s)
	}
	if len(got) != len(want) {
		t.Fatalf("groups = %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("sum[%d] = %d, want %d", k, got[k], v)
		}
	}

	inj := fault.New(9).Arm(fault.HashCollision, 0, 1000)
	fault.Enable(inj)
	_, err = SumBy(items, key, val, &Config{Procs: 2})
	fault.Disable()
	if err == nil || !strings.Contains(err.Error(), "hash collision") {
		t.Fatalf("persistent collisions: err = %v, want hash collision error", err)
	}
	if inj.Fired(fault.HashCollision) < 2 {
		t.Errorf("collision point fired %d times, want one per retry", inj.Fired(fault.HashCollision))
	}
}

// TestSorterReduceWarmAllocs is the warm fused allocation gate: after
// one warming call, ReduceShared and HistogramShared on a Sorter must
// run allocation-free — no grouped intermediate, no per-group slice
// headers, no output copy. (The Reducer→spec closure adaptation costs a
// handful of fixed allocations per call, independent of n and groups.)
func TestSorterReduceWarmAllocs(t *testing.T) {
	a := mkRecords(100000, 400, 19)
	s := NewSorter(&Config{Procs: 1, Seed: 3})
	if _, _, err := s.ReduceShared(a, sumReducer); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := s.ReduceShared(a, sumReducer); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("warm ReduceShared allocs = %.0f, want ≤ 8 (independent of n and groups)", allocs)
	}
	if _, _, err := s.HistogramShared(a); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(5, func() {
		if _, _, err := s.HistogramShared(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("warm HistogramShared allocs = %.0f, want ≤ 8", allocs)
	}
}

// bytesPerRun reports mean heap bytes allocated per call of fn, the way
// allocation counts are measured for AllocsPerRun: GOMAXPROCS pinned to
// 1 and a warmup call excluded.
func bytesPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestFusedCountByAllocatesLessThanGrouping gates the point of fusion at
// the generic layer: CountBy never materializes the grouped permutation,
// so on a many-group input it must allocate meaningfully fewer bytes
// than CollectGroups, which builds the full n-item grouped output plus a
// slice header per group.
func TestFusedCountByAllocatesLessThanGrouping(t *testing.T) {
	type wide struct {
		k       int
		payload [14]uint64
	}
	r := rand.New(rand.NewSource(41))
	items := make([]wide, 50000)
	for i := range items {
		items[i] = wide{k: r.Intn(5000)}
	}
	key := func(v wide) int { return v.k }
	cfg := &Config{Procs: 1, Seed: 7}

	fused := bytesPerRun(3, func() {
		if _, err := CountBy(items, key, cfg); err != nil {
			t.Fatal(err)
		}
	})
	grouped := bytesPerRun(3, func() {
		if _, err := CollectGroups(items, key, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if fused >= 0.8*grouped {
		t.Errorf("fused CountBy bytes/run = %.0f, CollectGroups = %.0f; want fused meaningfully smaller", fused, grouped)
	}
}

// TestGenericAllocGates bounds the bytes the generic front end allocates
// per item at n = 2^16 over 1,024 keys on one worker. The fused SumBy
// and CountBy allocate their output and representatives per group, not
// per item, and keep their sums in the pipeline's accumulator; By
// gathers straight from the semisorted records without an intermediate
// permutation. (Before those changes: SumBy 81.6, CountBy 73.8 and By
// 67.1 B/item.)
func TestGenericAllocGates(t *testing.T) {
	const n = 1 << 16
	r := rand.New(rand.NewSource(43))
	items := make([]int, n)
	for i := range items {
		items[i] = r.Intn(1024)
	}
	key := func(v int) int { return v }
	cfg := &Config{Procs: 1, Seed: 5}
	gates := []struct {
		name string
		max  float64
		fn   func() error
	}{
		{"SumBy", 56, func() error { _, err := SumBy(items, key, key, cfg); return err }},
		{"CountBy", 56, func() error { _, err := CountBy(items, key, cfg); return err }},
		{"By", 67.1 - 6, func() error { _, err := By(items, key, cfg); return err }},
	}
	for _, g := range gates {
		perItem := bytesPerRun(3, func() {
			if err := g.fn(); err != nil {
				t.Fatal(err)
			}
		}) / n
		t.Logf("%s: %.1f B/item", g.name, perItem)
		if perItem > g.max {
			t.Errorf("%s allocates %.1f B/item, want ≤ %.1f", g.name, perItem, g.max)
		}
	}
}

// TestReduceRecordsGroupSizedOutput pins that a fresh-workspace fused
// reduce allocates its output per group: with g ≪ n keys the returned
// slice's capacity stays below n.
func TestReduceRecordsGroupSizedOutput(t *testing.T) {
	const n = 50000
	a := mkRecords(n, 200, 47)
	for _, strat := range fusedStrategies {
		out, err := ReduceRecords(a, sumReducer, &Config{Procs: 2, Seed: 9, ScatterStrategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		if cap(out) >= n {
			t.Errorf("%v: cap(out) = %d for %d groups of %d records, want < n", strat, cap(out), len(out), n)
		}
	}
}
