package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/hashtable"
	"repro/internal/rec"
)

// dirMulInv is dirMul's inverse mod 2^64 (Newton's iteration doubles the
// correct low bits each step), so a test can pick keys by directory slot.
var dirMulInv = func() uint64 {
	inv := uint64(dirMul)
	for i := 0; i < 6; i++ {
		inv *= 2 - dirMul*inv
	}
	return inv
}()

// keyWithProduct returns the key whose product with dirMul is p: its
// directory slot at any size D is p's top log2 D bits.
func keyWithProduct(p uint64) uint64 { return p * dirMulInv }

// classifierPlan builds a plan's Phase 2 state by hand — 2^logLight
// hash ranges with random sample counts (so adjacent ranges merge), the
// given heavy keys — and runs allocatePhase, which builds the range
// filter, the heavy directory and the table exactly as a real attempt
// does.
func classifierPlan(t *testing.T, a []rec.Record, heavy []uint64, logLight uint, seed int64) *plan {
	t.Helper()
	ws := &Workspace{}
	cfg := Config{Procs: 1, Seed: 1, ScatterStrategy: ScatterCounting, Delta: 2}
	pl := &ws.plan
	pl.begin(ws, a, nil, &cfg, 0, &tracer{}, nil)
	pl.numLight = 1 << logLight
	pl.shift = 64 - logLight
	r := rand.New(rand.NewSource(seed))
	pl.lightCounts = grow(&ws.lightCounts, pl.numLight)
	for i := range pl.lightCounts {
		pl.lightCounts[i] = int32(r.Intn(3))
	}
	pl.numHeavy = len(heavy)
	pl.heavyRuns = grow(&ws.heavyRuns, len(heavy))
	for i, k := range heavy {
		pl.heavyRuns[i] = heavyRun{key: k, count: 4}
	}
	pl.strat = ScatterCounting
	if err := pl.allocatePhase(countingStage{}); err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestClassifierMatchesReference pins the classifier — range filter,
// heavy directory, shared-slot fallback to the table — against a map:
// a heavy key gets its heavy bucket, every other key the light bucket of
// its hash range, through bucketOfBatch at every batch length. The crafted
// heavy sets force shared directory slots (the Empty key among them), key
// 0 on both sides, no heavy keys at all, and a single hash range.
func TestClassifierMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// sameSlot returns a fresh key whose product shares p's top 24 bits,
	// so it lands in p's slot at every directory size up to 2^24.
	sameSlot := func(p uint64) uint64 {
		return keyWithProduct(p&^(1<<40-1) | rng.Uint64()>>24)
	}
	empty := hashtable.Empty
	emptySlot := empty * dirMul
	cases := []struct {
		name     string
		heavy    []uint64
		light    []uint64 // extra probe keys beyond the generic set
		logLight uint
		shared   int // directory slots the crafted heavy keys must share
	}{
		{
			name:     "shared-slots",
			heavy:    []uint64{sameSlot(7 << 60), sameSlot(7 << 60), sameSlot(7 << 60), sameSlot(9 << 60), sameSlot(9 << 60), rng.Uint64()},
			light:    []uint64{sameSlot(7 << 60), sameSlot(7 << 60), sameSlot(9 << 60), sameSlot(12 << 60)},
			logLight: 2,
			shared:   2,
		},
		{
			name:     "empty-key-heavy-shared",
			heavy:    []uint64{hashtable.Empty, sameSlot(emptySlot), rng.Uint64(), rng.Uint64()},
			light:    []uint64{sameSlot(emptySlot), sameSlot(emptySlot)},
			logLight: 3,
			shared:   1,
		},
		{
			name:     "empty-key-heavy-alone",
			heavy:    []uint64{hashtable.Empty, 1, 2, 3},
			logLight: 1,
		},
		{
			name:     "empty-key-light-shared",
			heavy:    []uint64{sameSlot(emptySlot), sameSlot(emptySlot), 5},
			logLight: 2,
			shared:   1,
		},
		{
			name:     "zero-heavy",
			heavy:    []uint64{0, sameSlot(0), 1 << 63, rng.Uint64()},
			logLight: 4,
			shared:   1,
		},
		{
			name:     "zero-light-shared",
			heavy:    []uint64{sameSlot(0), sameSlot(0), sameSlot(0), ^uint64(1)},
			logLight: 3,
			shared:   1,
		},
		{name: "no-heavy", logLight: 4},
		{
			name:     "one-range",
			heavy:    []uint64{sameSlot(3 << 60), sameSlot(3 << 60), sameSlot(4 << 60), sameSlot(4 << 60), 0, hashtable.Empty, rng.Uint64()},
			light:    []uint64{sameSlot(3 << 60), sameSlot(4 << 60)},
			logLight: 0,
			shared:   2,
		},
		{
			name: "many-heavy",
			heavy: func() []uint64 {
				ks := make([]uint64, 300)
				for i := range ks {
					ks[i] = rng.Uint64()
				}
				return ks
			}(),
			logLight: 5,
		},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			heavyID := make(map[uint64]int64, len(tc.heavy))
			for i, k := range tc.heavy {
				if _, dup := heavyID[k]; dup {
					t.Fatalf("heavy key %#x listed twice", k)
				}
				heavyID[k] = int64(i)
			}
			// Probe keys: every heavy key, the edge keys, the extra light
			// keys, keys crafted into every directory slot (empty,
			// exclusive and shared alike), and random keys.
			keys := append([]uint64{0, 1, hashtable.Empty, 1 << 63}, tc.heavy...)
			keys = append(keys, tc.light...)
			a := make([]rec.Record, 0, 4096)
			for _, k := range keys {
				a = append(a, rec.Record{Key: k})
			}
			pl := classifierPlan(t, a, tc.heavy, tc.logLight, int64(ci))
			logD := bits.Len(uint(len(pl.heavyDir) - 1))
			shared := 0
			for s, e := range pl.heavyDir {
				if e.hid == dirShared {
					shared++
				}
				for j := 0; j < 3; j++ {
					a = append(a, rec.Record{Key: keyWithProduct(uint64(s)<<(64-logD) | rng.Uint64()>>logD)})
				}
			}
			for len(a) < cap(a) {
				a = append(a, rec.Record{Key: rng.Uint64()})
			}
			pl.a, pl.n = a, len(a)
			if want := countShared(tc.heavy, logD); shared != want || shared < tc.shared {
				t.Fatalf("directory has %d shared slots, want %d (at least %d)", shared, want, tc.shared)
			}

			ref := func(k uint64) (int64, bool) {
				if id, ok := heavyID[k]; ok {
					return id, true
				}
				v := pl.lightBucketOf[k>>pl.shift]
				if v < 0 {
					v = ^v
				}
				return int64(v), false
			}
			for i, r := range a {
				wb, wh := ref(r.Key)
				if end := pl.firstLight + pl.numLightMerged; !wh && (wb < int64(pl.firstLight) || wb >= int64(end)) {
					t.Fatalf("record %d: light id %d outside [%d, %d)", i, wb, pl.firstLight, end)
				}
			}
			var bids [probeBatch]int64
			var heavy [probeBatch]bool
			// Batch lengths cycle through 1..probeBatch.
			for base, step := 0, 1; base < len(a); base, step = base+step, step%probeBatch+1 {
				m := min(step, len(a)-base)
				pl.bucketOfBatch(base, m, &bids, &heavy)
				for u := 0; u < m; u++ {
					k := a[base+u].Key
					if wb, wh := ref(k); bids[u] != wb || heavy[u] != wh {
						t.Fatalf("bucketOfBatch(%#x) = (%d, %v), want (%d, %v)", k, bids[u], heavy[u], wb, wh)
					}
				}
			}
		})
	}
}

// countShared counts the directory slots of size 2^logD that two or more
// of the given keys map to.
func countShared(keys []uint64, logD int) int {
	per := map[uint64]int{}
	for _, k := range keys {
		per[(k*dirMul)>>(64-logD)]++
	}
	shared := 0
	for _, c := range per {
		if c > 1 {
			shared++
		}
	}
	return shared
}

// TestClassifierSharedSlotsEndToEnd drives every route over an input
// whose heavy keys all share one directory slot, so every heavy record
// resolves through the table fallback, at several worker counts (the CI
// race-stress sweep runs it under -race): plain semisorts must group
// exactly, and the fused reduce must fold every key to its reference sum.
// A plain semisort classifies only on the probing route; under the
// planner (Auto) it goes to the radix kernel, and only its fused reduce,
// which always runs counting, reaches the classifier.
func TestClassifierSharedSlotsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 1 << 15
	hot := make([]uint64, 40)
	for i := range hot {
		hot[i] = keyWithProduct(rng.Uint64() >> 20) // top 20 product bits zero
	}
	hot[0] = hashtable.Empty
	hot[1] = 0
	a := make([]rec.Record, n)
	for i := range a {
		var k uint64
		switch r := rng.Intn(8); {
		case r < 5:
			k = hot[rng.Intn(len(hot))]
		case r == 5:
			k = keyWithProduct(rng.Uint64() >> 20) // light, same slot
		default:
			k = rng.Uint64()
		}
		a[i] = rec.Record{Key: k, Value: uint64(i)}
	}
	_, sum, vals := refAgg(a)
	for _, strat := range []ScatterStrategy{ScatterAuto, ScatterProbing} {
		for _, procs := range []int{1, 2, 4} {
			label := fmt.Sprintf("%v/procs=%d", strat, procs)
			cfg := &Config{Procs: procs, Seed: 5, ScatterStrategy: strat}
			out, stats, err := Semisort(a, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if stats.ScatterStrategy != "dovetail" && stats.HeavyKeys < len(hot)/2 {
				t.Fatalf("%s: %d heavy keys, want most of the %d hot keys", label, stats.HeavyKeys, len(hot))
			}
			checkSemisorted(t, label, a, out)
			rout, reps, rstats, err := ReduceShared(&Workspace{}, a, cfg, sumSpec())
			if err != nil {
				t.Fatalf("%s reduce: %v", label, err)
			}
			if rstats.HeavyKeys < len(hot)/2 {
				t.Fatalf("%s reduce: %d heavy keys, want most of the %d hot keys", label, rstats.HeavyKeys, len(hot))
			}
			checkReduced(t, label+" reduce", rout, reps, sum, vals)
		}
	}
}

// TestClassifyNonPow2MaxLightBuckets drives both sampled routes with a
// MaxLightBuckets that is not a power of two and lies below the count
// the input size asks for. The hash ranges are selected by a key's top
// bits, so the cap must round down to a power of two; taken as given, it
// let the classifier index past the light-range histogram.
func TestClassifyNonPow2MaxLightBuckets(t *testing.T) {
	for _, tc := range []struct{ n, cap, pow2 int }{
		{1 << 17, 100, 64},
		{4096, 3, 2},
	} {
		a := mkRecords(tc.n, 0, int64(tc.cap))
		count, _, _ := refAgg(a)
		for _, procs := range []int{1, 2} {
			label := fmt.Sprintf("n=%d/cap=%d/procs=%d", tc.n, tc.cap, procs)
			cfg := &Config{Procs: procs, Seed: 3, MaxLightBuckets: tc.cap, ScatterStrategy: ScatterProbing}
			out, stats, err := Semisort(a, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkSemisorted(t, label, a, out)
			if stats.LightBuckets > tc.pow2 {
				t.Errorf("%s: %d light buckets, want at most %d", label, stats.LightBuckets, tc.pow2)
			}
			groups, _, hstats, err := HistogramShared(&Workspace{}, a, cfg)
			if err != nil {
				t.Fatalf("%s histogram: %v", label, err)
			}
			if len(groups) != len(count) || hstats.LightBuckets > tc.pow2 {
				t.Fatalf("%s histogram: %d groups and %d light buckets, want %d and at most %d",
					label, len(groups), hstats.LightBuckets, len(count), tc.pow2)
			}
			for _, g := range groups {
				if g.Value != count[g.Key] {
					t.Fatalf("%s histogram: key %#x count %d, want %d", label, g.Key, g.Value, count[g.Key])
				}
			}
		}
	}
}
