package semisort

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/obsv"
)

// TestFusedRouteTable is the front end's side of the planner's route
// table: every fused call kind (CountBy, SumBy, Distinct, ReduceBy with a
// Merge, ReduceRecords, Histogram) runs the counting scatter in one
// attempt whatever ScatterStrategy says, and returns the
// default's result. Under an unmeetable MaxSlotBytes a fused call falls
// back to the sequential fold — the one degradation left to it — and
// ReduceBy's and SumBy's maps stay exact, which is what lets the fused
// spec carry no per-attempt reset.
func TestFusedRouteTable(t *testing.T) {
	items := make([]int, 20000)
	for i := range items {
		if i%2 == 0 {
			items[i] = i % 40 // heavy keys
		} else {
			items[i] = i // light keys
		}
	}
	key := func(v int) int { return v }
	recs := make([]Record, len(items))
	for i, v := range items {
		recs[i] = Record{Key: uint64(v)*0x9e3779b97f4a7c15 + 1, Value: uint64(i)}
	}
	sum := Reduction[int, int]{
		Fold:  func(acc, v int) int { return acc + v },
		Merge: func(a, b int) int { return a + b },
	}
	// Each call kind returns its result as a comparable map.
	calls := map[string]func(*Config) (map[uint64]uint64, error){
		"CountBy": func(c *Config) (map[uint64]uint64, error) {
			m, err := CountBy(items, key, c)
			return intMap(m), err
		},
		"SumBy": func(c *Config) (map[uint64]uint64, error) {
			m, err := SumBy(items, key, func(v int) int { return v }, c)
			return intMap(m), err
		},
		"Distinct": func(c *Config) (map[uint64]uint64, error) {
			d, err := Distinct(items, c)
			m := map[uint64]uint64{}
			for _, v := range d {
				m[uint64(v)]++
			}
			return m, err
		},
		"ReduceBy": func(c *Config) (map[uint64]uint64, error) {
			m, err := ReduceBy(items, key, sum, c)
			return intMap(m), err
		},
		"ReduceRecords": func(c *Config) (map[uint64]uint64, error) {
			out, err := ReduceRecords(recs, sumReducer, c)
			return recordMap(out), err
		},
		"Histogram": func(c *Config) (map[uint64]uint64, error) {
			out, err := Histogram(recs, c)
			return recordMap(out), err
		},
	}
	for name, call := range calls {
		want, err := call(&Config{Procs: 2, Seed: 3})
		if err != nil {
			t.Fatalf("%s default: %v", name, err)
		}
		for _, strat := range allStrategies {
			label := fmt.Sprintf("%s/%v", name, strat)
			var col Collector
			got, err := call(&Config{Procs: 2, Seed: 3, ScatterStrategy: strat, Observer: &col})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !maps.Equal(got, want) {
				t.Fatalf("%s: result differs from the default call", label)
			}
			if n := len(col.Attempts()); n != 1 {
				t.Errorf("%s: %d core attempts, want 1", label, n)
			}
			scatters := 0
			for _, s := range col.Spans() {
				if s.Phase == obsv.PhaseScatter {
					scatters++
					if s.Strategy != "counting" {
						t.Errorf("%s: scatter span strategy %q, want counting", label, s.Strategy)
					}
				}
			}
			if scatters != 1 {
				t.Errorf("%s: %d scatter spans, want 1", label, scatters)
			}
		}
		if name != "ReduceBy" && name != "SumBy" {
			continue
		}
		var col Collector
		got, err := call(&Config{Procs: 2, Seed: 3, MaxSlotBytes: 1, Observer: &col})
		if err != nil {
			t.Fatalf("%s capped: %v", name, err)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%s capped: fallback result differs from the default call", name)
		}
		if atts := col.Attempts(); len(atts) != 2 || atts[1].Kind != obsv.AttemptFallback {
			t.Errorf("%s capped: attempts %+v, want the capped attempt then the fallback", name, atts)
		}
	}
}

// intMap converts an int → int result to uint64 keys and values.
func intMap(m map[int]int) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(m))
	for k, v := range m {
		out[uint64(k)] = uint64(v)
	}
	return out
}

// recordMap turns one-record-per-group output into a key → value map.
func recordMap(out []Record) map[uint64]uint64 {
	m := make(map[uint64]uint64, len(out))
	for _, r := range out {
		m[r.Key] = r.Value
	}
	return m
}
