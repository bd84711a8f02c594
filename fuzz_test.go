package semisort

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/rec"
	"repro/internal/seqsemi"
)

// FuzzRecords drives the full semisort with arbitrary byte-derived keys
// and configuration knobs. Run with `go test -fuzz=FuzzRecords`; the seed
// corpus below always runs under plain `go test`.
func FuzzRecords(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(16), uint8(16))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(4), uint8(4))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255}, uint8(2), uint8(64))
	f.Add([]byte{}, uint8(16), uint8(16))
	f.Add([]byte{42}, uint8(1), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, rateRaw, deltaRaw uint8) {
		// Derive records: each byte selects a key class; duplicate-heavy
		// by construction (only up to 256 distinct keys).
		a := make([]Record, len(data))
		for i, b := range data {
			var kb [8]byte
			kb[0] = b
			kb[1] = b ^ 0x5A
			a[i] = Record{Key: binary.LittleEndian.Uint64(kb[:]) * 0x9e3779b97f4a7c15, Value: uint64(i)}
		}
		cfg := &Config{
			SampleRate: int(rateRaw%64) + 1,
			Delta:      int(deltaRaw%64) + 1,
			Seed:       uint64(len(data)),
		}
		out, err := Records(a, cfg)
		if err != nil {
			t.Fatalf("semisort failed: %v", err)
		}
		if !IsSemisorted(out) {
			t.Fatal("output not semisorted")
		}
		if !rec.SamePermutation(a, out) {
			t.Fatal("output not a permutation of input")
		}
	})
}

// FuzzBy drives the generic front-end with arbitrary string keys.
func FuzzBy(f *testing.F) {
	f.Add("the quick brown fox", uint8(0))
	f.Add("", uint8(3))
	f.Add("aaaaaaaaaaaaaaaaaaaa", uint8(1))
	f.Add("ab", uint8(2))

	f.Fuzz(func(t *testing.T, s string, window uint8) {
		// Slice the string into overlapping chunks as items.
		w := int(window%5) + 1
		var items []string
		for i := 0; i+w <= len(s); i++ {
			items = append(items, s[i:i+w])
		}
		out, err := By(items, func(v string) string { return v }, nil)
		if err != nil {
			t.Fatalf("By failed: %v", err)
		}
		if len(out) != len(items) {
			t.Fatalf("length changed: %d -> %d", len(items), len(out))
		}
		seen := map[string]bool{}
		for i := 0; i < len(out); {
			k := out[i]
			if seen[k] {
				t.Fatalf("group %q split", k)
			}
			seen[k] = true
			for i < len(out) && out[i] == k {
				i++
			}
		}
		counts := map[string]int{}
		for _, v := range items {
			counts[v]++
		}
		for _, v := range out {
			counts[v]--
		}
		for k, c := range counts {
			if c != 0 {
				t.Fatalf("multiset broken for %q: %d", k, c)
			}
		}
	})
}

// FuzzAgg drives the fused aggregation helpers with arbitrary string
// keys, sliced into items as FuzzBy does, and checks CountBy, SumBy (with
// an int8 value, so sums wrap) and Distinct against a Go-map reference.
func FuzzAgg(f *testing.F) {
	f.Add("the quick brown fox", uint8(0))
	f.Add("", uint8(3))
	f.Add("aaaaaaaaaaaaaaaaaaaa", uint8(1))
	f.Add("abababababababababababab", uint8(2))

	f.Fuzz(func(t *testing.T, s string, window uint8) {
		w := int(window%5) + 1
		var items []string
		for i := 0; i+w <= len(s); i++ {
			items = append(items, s[i:i+w])
		}
		key := func(v string) string { return v }
		val := func(v string) int8 { return int8(v[0]) }
		wantCount := map[string]int{}
		wantSum := map[string]int8{}
		for _, v := range items {
			wantCount[v]++
			wantSum[v] += val(v)
		}

		counts, err := CountBy(items, key, nil)
		if err != nil {
			t.Fatalf("CountBy failed: %v", err)
		}
		if len(counts) != len(wantCount) {
			t.Fatalf("CountBy: %d groups, want %d", len(counts), len(wantCount))
		}
		for k, c := range wantCount {
			if counts[k] != c {
				t.Fatalf("CountBy[%q] = %d, want %d", k, counts[k], c)
			}
		}

		sums, err := SumBy(items, key, val, nil)
		if err != nil {
			t.Fatalf("SumBy failed: %v", err)
		}
		if len(sums) != len(wantSum) {
			t.Fatalf("SumBy: %d groups, want %d", len(sums), len(wantSum))
		}
		for k, v := range wantSum {
			if got, ok := sums[k]; !ok || got != v {
				t.Fatalf("SumBy[%q] = %d, want %d", k, got, v)
			}
		}

		distinct, err := Distinct(items, nil)
		if err != nil {
			t.Fatalf("Distinct failed: %v", err)
		}
		if len(distinct) != len(wantCount) {
			t.Fatalf("Distinct: %d values, want %d", len(distinct), len(wantCount))
		}
		seen := map[string]bool{}
		for _, v := range distinct {
			if seen[v] || wantCount[v] == 0 {
				t.Fatalf("Distinct: %q repeated or not in the input", v)
			}
			seen[v] = true
		}
	})
}

// FuzzConfigs stresses unusual Config combinations on a fixed input
// through the core directly: a plain semisort (the dovetail route, or
// probing when the strategy asks for it) and a fused histogram (the
// counting route, which reads the sampling, threshold and bucket knobs
// whatever the strategy says), each checked against the sequential
// reference's key counts. The input's 4,096 records ask for 4 light
// ranges, so buckets can cap them below that, at 1, 2 or 3.
func FuzzConfigs(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint16(1024), uint8(0))
	f.Add(uint8(1), uint8(1), uint16(1), uint8(1))
	f.Add(uint8(63), uint8(63), uint16(65535), uint8(1))
	// A light-range cap of 3, which is not a power of two, on the probing
	// plain call and the fused histogram.
	f.Add(uint8(16), uint8(16), uint16(2), uint8(1))
	// Sampling and threshold extremes under the counting alias.
	f.Add(uint8(1), uint8(1), uint16(1), uint8(2))
	f.Add(uint8(63), uint8(2), uint16(65535), uint8(2))
	// Heavy-set extremes for the sampled routes: rate 1 samples every
	// record (37 keys × ~111 records each: every key heavy for any
	// Delta ≤ 64); a sparse sample with small Delta finds a partial heavy
	// set; a sparse sample with large Delta finds none.
	f.Add(uint8(1), uint8(16), uint16(1024), uint8(3))
	f.Add(uint8(63), uint8(2), uint16(1024), uint8(3))
	f.Add(uint8(63), uint8(63), uint16(65535), uint8(3))
	// Delta 1 (every sampled key heavy), and one light bucket under
	// probing at a rate that does not divide the input.
	f.Add(uint8(16), uint8(0), uint16(1024), uint8(0))
	f.Add(uint8(6), uint8(5), uint16(0), uint8(1))

	base := make([]rec.Record, 4096)
	for i := range base {
		base[i] = rec.Record{Key: uint64(i%37) * 0x9e3779b97f4a7c15, Value: uint64(i)}
	}
	refKeys := rec.KeyCounts(seqsemi.TwoPhase(append([]rec.Record(nil), base...)))

	f.Fuzz(func(t *testing.T, rate, delta uint8, buckets uint16, strat uint8) {
		cfg := &core.Config{
			Procs:           2,
			SampleRate:      int(rate%64) + 1,
			Delta:           int(delta%64) + 1,
			MaxLightBuckets: int(buckets) + 1,
			ScatterStrategy: core.ScatterStrategy(strat % 4),
			Seed:            uint64(rate) ^ uint64(buckets),
		}
		out, _, err := core.Semisort(base, cfg)
		if err != nil {
			t.Fatalf("config %+v failed: %v", cfg, err)
		}
		if !rec.IsSemisorted(out) || !rec.SamePermutation(base, out) {
			t.Fatalf("config %+v produced invalid output", cfg)
		}
		got := rec.KeyCounts(out)
		if len(got) != len(refKeys) {
			t.Fatalf("config %+v: %d distinct keys, reference has %d", cfg, len(got), len(refKeys))
		}
		for k, c := range refKeys {
			if got[k] != c {
				t.Fatalf("config %+v: key %#x count %d, reference %d", cfg, k, got[k], c)
			}
		}

		groups, _, stats, err := core.HistogramShared(nil, base, cfg)
		if err != nil {
			t.Fatalf("config %+v: fused histogram failed: %v", cfg, err)
		}
		if stats.ScatterStrategy != "counting" || len(groups) != len(refKeys) {
			t.Fatalf("config %+v: fused histogram took %q to %d groups, reference has %d keys",
				cfg, stats.ScatterStrategy, len(groups), len(refKeys))
		}
		for _, g := range groups {
			if uint64(refKeys[g.Key]) != g.Value {
				t.Fatalf("config %+v: fused histogram key %#x count %d, reference %d",
					cfg, g.Key, g.Value, refKeys[g.Key])
			}
		}
	})
}
