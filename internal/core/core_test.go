package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/distgen"
	"repro/internal/hash"
	"repro/internal/hashtable"
	"repro/internal/rec"
)

// mkRecords builds n records whose keys are drawn from keyRange distinct
// hashed values (keyRange == 0 means full-range unique-ish keys). Payloads
// record the input index so permutation checks are exact.
func mkRecords(n int, keyRange uint64, seed int64) []rec.Record {
	r := rand.New(rand.NewSource(seed))
	f := hash.NewFamily(uint64(seed))
	a := make([]rec.Record, n)
	for i := range a {
		var k uint64
		if keyRange == 0 {
			k = r.Uint64()
		} else {
			k = f.Hash(uint64(r.Int63n(int64(keyRange))))
		}
		a[i] = rec.Record{Key: k, Value: uint64(i)}
	}
	return a
}

func checkSemisorted(t *testing.T, label string, in, out []rec.Record) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("%s: output length %d, want %d", label, len(out), len(in))
	}
	if !rec.IsSemisorted(out) {
		t.Fatalf("%s: output not semisorted", label)
	}
	if !rec.SamePermutation(in, out) {
		t.Fatalf("%s: output not a permutation of input", label)
	}
}

func TestSemisortEmpty(t *testing.T) {
	out, stats, err := Semisort(nil, nil)
	if err != nil || len(out) != 0 || stats.N != 0 {
		t.Fatalf("empty input: out=%v stats=%+v err=%v", out, stats, err)
	}
}

func TestSemisortTinySizes(t *testing.T) {
	for n := 1; n <= 40; n++ {
		a := mkRecords(n, uint64(max(n/3, 1)), int64(n))
		out, _, err := Semisort(a, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkSemisorted(t, "tiny", a, out)
	}
}

func TestSemisortSizesAndProcs(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		for _, n := range []int{100, 1000, 10000, 200000} {
			a := mkRecords(n, uint64(n/10+1), int64(n)*31+int64(procs))
			out, stats, err := Semisort(a, &Config{Procs: procs, Seed: uint64(n)})
			if err != nil {
				t.Fatalf("procs=%d n=%d: %v", procs, n, err)
			}
			checkSemisorted(t, "sizes", a, out)
			if stats.N != n {
				t.Errorf("stats.N = %d, want %d", stats.N, n)
			}
		}
	}
}

func TestSemisortDistributionShapes(t *testing.T) {
	const n = 100000
	cases := []struct {
		name     string
		keyRange uint64
	}{
		{"allEqual", 1},     // one giant heavy key
		{"fewKeys", 10},     // all heavy
		{"threshold", 400},  // keys near the heavy/light boundary
		{"manyKeys", n / 4}, // mostly light
		{"allDistinct", 0},  // every key unique: all light
		{"someDuplicates", n/2 + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := mkRecords(n, c.keyRange, 7)
			out, stats, err := Semisort(a, &Config{Procs: 4, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			checkSemisorted(t, c.name, a, out)
			t.Logf("%s: heavyKeys=%d lightBuckets=%d heavyRecords=%d slots=%d",
				c.name, stats.HeavyKeys, stats.LightBuckets, stats.HeavyRecords, stats.SlotsAllocated)
		})
	}
}

func TestSemisortHeavyClassification(t *testing.T) {
	// With 10 distinct keys over 100k records each key has ~10k copies,
	// guaranteeing sample counts far above delta: all records must take
	// the heavy path. Pinned to probing, the plain route that runs the
	// Phase 2 classification (the planner's dovetail route has none).
	a := mkRecords(100000, 10, 3)
	_, stats, err := Semisort(a, &Config{Procs: 4, ScatterStrategy: ScatterProbing})
	if err != nil {
		t.Fatal(err)
	}
	if stats.HeavyRecords != len(a) {
		t.Errorf("heavy records = %d, want all %d", stats.HeavyRecords, len(a))
	}
	if stats.HeavyKeys != 10 {
		t.Errorf("heavy keys = %d, want 10", stats.HeavyKeys)
	}
}

func TestSemisortAllLight(t *testing.T) {
	// Unique keys: nothing should be classified heavy.
	a := mkRecords(100000, 0, 4)
	_, stats, err := Semisort(a, &Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.HeavyRecords != 0 {
		t.Errorf("heavy records = %d, want 0", stats.HeavyRecords)
	}
}

func TestSemisortLinearWorkSpace(t *testing.T) {
	// Lemma 3.5: total allocated slots are O(n). Check the constant stays
	// sane (< 16n) across distributions.
	const n = 200000
	for _, keyRange := range []uint64{1, 100, 10000, 0} {
		a := mkRecords(n, keyRange, 9)
		_, stats, err := Semisort(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.SlotsAllocated > 16*n {
			t.Errorf("keyRange=%d: %d slots allocated for n=%d (> 16n)", keyRange, stats.SlotsAllocated, n)
		}
	}
}

func TestSemisortEmptySentinelKey(t *testing.T) {
	// Records whose key equals the hash table's reserved Empty value must
	// still be semisorted correctly, both when heavy and when light.
	t.Run("heavy", func(t *testing.T) {
		a := make([]rec.Record, 50000)
		for i := range a {
			if i%2 == 0 {
				a[i] = rec.Record{Key: hashtable.Empty, Value: uint64(i)}
			} else {
				a[i] = rec.Record{Key: uint64(i), Value: uint64(i)}
			}
		}
		out, stats, err := Semisort(a, &Config{Procs: 4, ScatterStrategy: ScatterProbing})
		if err != nil {
			t.Fatal(err)
		}
		checkSemisorted(t, "empty-heavy", a, out)
		if stats.HeavyRecords < 25000 {
			t.Errorf("expected the Empty key to be heavy, heavyRecords=%d", stats.HeavyRecords)
		}
	})
	t.Run("light", func(t *testing.T) {
		a := mkRecords(50000, 0, 5)
		a[17].Key = hashtable.Empty
		a[18].Key = hashtable.Empty - 1
		out, _, err := Semisort(a, &Config{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		checkSemisorted(t, "empty-light", a, out)
	})
}

func TestSemisortDeterministicForSeed(t *testing.T) {
	// Exact output determinism holds for sequential execution only: with
	// multiple workers the scatter's CAS races reorder records within a
	// group (grouping is still correct, checked everywhere else).
	a := mkRecords(20000, 100, 6)
	out1, _, err1 := Semisort(a, &Config{Seed: 42, Procs: 1})
	out2, _, err2 := Semisort(a, &Config{Seed: 42, Procs: 1})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("same seed produced different outputs at %d", i)
		}
	}
}

func TestSemisortInputUnmodified(t *testing.T) {
	a := mkRecords(10000, 50, 8)
	orig := append([]rec.Record(nil), a...)
	_, _, err := Semisort(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != orig[i] {
			t.Fatalf("input modified at %d", i)
		}
	}
}

// TestWorkspaceReuse runs many semisorts through one workspace, across
// growing and shrinking sizes, alternating the probing and dovetail
// routes.
func TestWorkspaceReuse(t *testing.T) {
	var ws Workspace
	for i, n := range []int{50000, 1000, 100000, 10, 70000} {
		a := distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: float64(n/10 + 1)}, uint64(i))
		cfg := &Config{Procs: 2, Seed: uint64(i)}
		if i%2 == 0 {
			cfg.ScatterStrategy = ScatterProbing
		}
		out, _, err := SemisortWS(&ws, a, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !rec.IsSemisorted(out) || !rec.SamePermutation(a, out) {
			t.Fatalf("n=%d: invalid output on reused workspace", n)
		}
	}
}

func TestSemisortOverflowRetry(t *testing.T) {
	// A pathologically small slack forces bucket overflow; the Las Vegas
	// path must retry with doubled slack and still succeed. Probing is
	// pinned: it is the only placement with slack to exhaust.
	a := mkRecords(50000, 200, 15)
	out, stats, err := Semisort(a, &Config{Procs: 4, Slack: 0.05, C: 0.01, MaxRetries: 12,
		ScatterStrategy: ScatterProbing})
	if err != nil {
		t.Fatalf("retry path failed: %v (retries=%d)", err, stats.Retries)
	}
	checkSemisorted(t, "overflow retry", a, out)
	if stats.Retries == 0 {
		t.Log("note: no retry was needed (slack estimate still sufficed)")
	}
	if stats.EffectiveSlack < 0.05 {
		t.Errorf("effective slack %f below initial", stats.EffectiveSlack)
	}
}

func TestSemisortOverflowExhaustion(t *testing.T) {
	// With MaxRetries=1, absurd sizing and the fallback disabled, the
	// failure must surface as ErrOverflow rather than wrong output.
	// Probing is pinned: the default planner's routes cannot overflow.
	a := mkRecords(50000, 3, 16) // few huge keys
	cfg := Config{Slack: 0.001, C: 0.0001, SampleRate: 50000, MaxRetries: 1, DisableFallback: true,
		ScatterStrategy: ScatterProbing}
	_, _, err := Semisort(a, &cfg)
	if err == nil {
		t.Skip("sizing survived; cannot force overflow with this input")
	}
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("error = %v, want ErrOverflow", err)
	}

	// With the fallback enabled (the default), the same exhaustion must
	// degrade to the sequential semisort and still return correct output.
	cfg.DisableFallback = false
	out, stats, err := Semisort(a, &cfg)
	if err != nil {
		t.Fatalf("fallback path errored: %v", err)
	}
	if !stats.FallbackUsed {
		t.Error("stats.FallbackUsed = false after retry exhaustion")
	}
	checkSemisorted(t, "overflow fallback", a, out)
}

func TestSemisortCustomParameters(t *testing.T) {
	a := mkRecords(80000, 1000, 17)
	cfgs := []Config{
		{SampleRate: 4, Delta: 4},
		{SampleRate: 64, Delta: 8},
		{MaxLightBuckets: 64},
		{MaxLightBuckets: 1 << 18},
		{C: 3.0, Slack: 2.0},
	}
	for i, cfg := range cfgs {
		cfg.Procs = 4
		out, _, err := Semisort(a, &cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		checkSemisorted(t, "custom cfg", a, out)
	}
}

func TestSemisortPhaseTimesPopulated(t *testing.T) {
	a := mkRecords(100000, 100, 18)
	// The sampled pipeline times its scatter; the planner's default, the
	// dovetail route, is one kernel call timed as the local sort.
	_, stats, err := Semisort(a, &Config{ScatterStrategy: ScatterProbing})
	if err != nil {
		t.Fatal(err)
	}
	p := stats.Phases
	if p.Total() <= 0 {
		t.Error("total phase time not positive")
	}
	if p.Scatter <= 0 {
		t.Error("scatter time not recorded")
	}
	_, stats, err = Semisort(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := stats.Phases; p.LocalSort <= 0 || p.SampleSort != 0 || p.Scatter != 0 {
		t.Errorf("dovetail route phases %+v, want only the local sort (and allocation) timed", p)
	}
}

func TestSemisortQuickProperty(t *testing.T) {
	prop := func(keys []uint64, spread uint8) bool {
		mod := uint64(spread)%64 + 1
		a := make([]rec.Record, len(keys))
		f := hash.NewFamily(99)
		for i, k := range keys {
			a[i] = rec.Record{Key: f.Hash(k % mod), Value: uint64(i)}
		}
		out, _, err := Semisort(a, &Config{Procs: 2, Seed: 1})
		if err != nil {
			return false
		}
		return rec.IsSemisorted(out) && rec.SamePermutation(a, out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSemisortAdversarialHighBitClustering(t *testing.T) {
	// All keys share the same top 16 bits, so every light record lands in
	// the same hash-range slice. The algorithm must still terminate and be
	// correct (that slice's f(s) covers it).
	const n = 60000
	a := make([]rec.Record, n)
	for i := range a {
		a[i] = rec.Record{Key: 0xABCD_0000_0000_0000 | uint64(i), Value: uint64(i)}
	}
	out, _, err := Semisort(a, &Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkSemisorted(t, "clustered high bits", a, out)
}

func TestSizeEstimateProperties(t *testing.T) {
	logn := 18.4 // ln(1e8)
	prev := 0
	for s := 0; s < 4096; s++ {
		got := sizeEstimate(s, logn, 1.25, 1.1, 16)
		if got < prev {
			t.Fatalf("sizeEstimate not monotone at s=%d: %d < %d", s, got, prev)
		}
		if got&(got-1) != 0 {
			t.Fatalf("sizeEstimate(%d) = %d not a power of two", s, got)
		}
		// Must dominate the naive expectation s/p = s*rate.
		if got < s*16 {
			t.Fatalf("sizeEstimate(%d) = %d below s/p = %d", s, got, s*16)
		}
		prev = got
	}
}

func TestSizeEstimateQuick(t *testing.T) {
	prop := func(sRaw uint16, rateRaw uint8) bool {
		s := int(sRaw)
		rate := int(rateRaw)%63 + 2
		got := sizeEstimate(s, 15, 1.25, 1.1, rate)
		return got >= 4 && got >= s*rate && got&(got-1) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSemisortUniform1M(b *testing.B) {
	const n = 1 << 20
	a := mkRecords(n, uint64(n), 1)
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Semisort(a, &Config{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSemisortSkewed1M(b *testing.B) {
	const n = 1 << 20
	a := mkRecords(n, 1000, 2)
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Semisort(a, &Config{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
