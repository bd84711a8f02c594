package semisort

import (
	"math/rand"
	"testing"

	"repro/internal/rec"
)

func TestSorterReuse(t *testing.T) {
	s := NewSorter(&Config{Procs: 2, Seed: 9})
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		n := 1000 + r.Intn(50000)
		a := make([]Record, n)
		for i := range a {
			a[i] = Record{Key: uint64(r.Intn(n/20+1)) * 0x9e3779b97f4a7c15, Value: uint64(i)}
		}
		out, err := s.Sort(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !IsSemisorted(out) || !rec.SamePermutation(a, out) {
			t.Fatalf("trial %d: invalid output", trial)
		}
	}
}

func TestSorterNilConfig(t *testing.T) {
	s := NewSorter(nil)
	a := []Record{{Key: 2}, {Key: 1}, {Key: 2}}
	out, err := s.Sort(a)
	if err != nil || len(out) != 3 || !IsSemisorted(out) {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestSorterWithStats(t *testing.T) {
	s := NewSorter(&Config{Procs: 2})
	a := mkRecords(50000, 100, 4)
	out, stats, err := s.SortWithStats(a)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSemisorted(out) || stats.N != len(a) {
		t.Fatalf("stats=%+v", stats)
	}
}

func TestSorterSortConfigOverride(t *testing.T) {
	s := NewSorter(&Config{SampleRate: 16})
	a := mkRecords(30000, 200, 6)
	// The sample is exactly N/SampleRate keys, so the override is
	// observable through SampleSize. The probing route samples; the
	// planner's default for a plain semisort does not.
	out, stats, err := s.SortConfig(a, &Config{SampleRate: 4, Procs: 2, ScatterStrategy: ScatterProbing})
	if err != nil {
		t.Fatal(err)
	}
	if !IsSemisorted(out) {
		t.Fatal("not semisorted")
	}
	if stats.SampleSize != len(a)/4 {
		t.Errorf("override ignored: sample=%d want %d", stats.SampleSize, len(a)/4)
	}
}

func TestSorterAllocationsAmortized(t *testing.T) {
	// After warm-up, repeated sorts through one Sorter should allocate far
	// less than the slot arrays would cost (only the output + small per-run
	// structures).
	s := NewSorter(&Config{Procs: 1, Seed: 3})
	a := mkRecords(100000, 500, 8)
	if _, err := s.Sort(a); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.Sort(a); err != nil {
			t.Fatal(err)
		}
	})
	// A fresh workspace would allocate several multi-MB slot arrays; the
	// reused path allocates the output plus bookkeeping. Guard loosely on
	// the count (not bytes): it must stay modest.
	if allocs > 5000 {
		t.Errorf("allocs per warm sort = %.0f, want amortized (< 5000)", allocs)
	}
}
