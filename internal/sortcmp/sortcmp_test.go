package sortcmp

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/rec"
)

func randRecords(n int, keyRange uint64, seed int64) []rec.Record {
	r := rand.New(rand.NewSource(seed))
	a := make([]rec.Record, n)
	for i := range a {
		var k uint64
		if keyRange == 0 {
			k = r.Uint64()
		} else {
			k = uint64(r.Int63n(int64(keyRange)))
		}
		a[i] = rec.Record{Key: k, Value: uint64(i)}
	}
	return a
}

func checkSorted(t *testing.T, label string, got, orig []rec.Record) {
	t.Helper()
	if !rec.IsSorted(got) {
		t.Fatalf("%s: output not sorted", label)
	}
	if !rec.SamePermutation(orig, got) {
		t.Fatalf("%s: output not a permutation of input", label)
	}
}

// sorters under test; procs is ignored by Introsort.
var sorters = []struct {
	name string
	fn   func(procs int, a []rec.Record)
}{
	{"Introsort", func(_ int, a []rec.Record) { Introsort(a) }},
	{"ParallelQuicksort", ParallelQuicksort},
	{"SampleSort", SampleSort},
	{"MergeSort", MergeSort},
}

func TestAllSortersSizes(t *testing.T) {
	sizes := []int{0, 1, 2, 3, insertionCutoff, insertionCutoff + 1, 1000,
		parCutoff, parCutoff + 1, 100000}
	for _, s := range sorters {
		t.Run(s.name, func(t *testing.T) {
			for _, procs := range []int{1, 4} {
				for _, n := range sizes {
					a := randRecords(n, 0, int64(n)+int64(procs)*1000)
					orig := append([]rec.Record(nil), a...)
					s.fn(procs, a)
					checkSorted(t, s.name, a, orig)
				}
			}
		})
	}
}

func TestAllSortersDistributions(t *testing.T) {
	cases := []struct {
		name     string
		keyRange uint64
	}{
		{"allEqual", 1}, {"twoValues", 2}, {"skewed", 10}, {"full", 0},
	}
	for _, s := range sorters {
		for _, c := range cases {
			t.Run(s.name+"/"+c.name, func(t *testing.T) {
				a := randRecords(60000, c.keyRange, 21)
				orig := append([]rec.Record(nil), a...)
				s.fn(4, a)
				checkSorted(t, s.name, a, orig)
			})
		}
	}
}

func TestAllSortersAdversarial(t *testing.T) {
	// Patterns that defeat naive quicksort pivots.
	mk := func(n int, f func(i int) uint64) []rec.Record {
		a := make([]rec.Record, n)
		for i := range a {
			a[i] = rec.Record{Key: f(i), Value: uint64(i)}
		}
		return a
	}
	const n = 50000
	patterns := map[string]func(i int) uint64{
		"sorted":   func(i int) uint64 { return uint64(i) },
		"reversed": func(i int) uint64 { return uint64(n - i) },
		"sawtooth": func(i int) uint64 { return uint64(i % 13) },
		"organ":    func(i int) uint64 { return uint64(min(i, n-i)) },
		"constant": func(i int) uint64 { return 42 },
	}
	for _, s := range sorters {
		for name, f := range patterns {
			t.Run(s.name+"/"+name, func(t *testing.T) {
				a := mk(n, f)
				orig := append([]rec.Record(nil), a...)
				s.fn(4, a)
				checkSorted(t, s.name+"/"+name, a, orig)
			})
		}
	}
}

func TestIntrosortMatchesStdSort(t *testing.T) {
	a := randRecords(30000, 100, 3)
	b := append([]rec.Record(nil), a...)
	Introsort(a)
	sort.Slice(b, func(i, j int) bool { return b[i].Key < b[j].Key })
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestMergeSortStability(t *testing.T) {
	// MergeSort is documented stable: equal keys keep input order.
	const n = 200000 // large enough to exercise the parallel merge
	a := make([]rec.Record, n)
	r := rand.New(rand.NewSource(6))
	for i := range a {
		a[i] = rec.Record{Key: uint64(r.Intn(50)), Value: uint64(i)}
	}
	MergeSort(8, a)
	for i := 1; i < n; i++ {
		if a[i].Key == a[i-1].Key && a[i].Value < a[i-1].Value {
			t.Fatalf("MergeSort not stable at %d", i)
		}
	}
}

func TestSortsOnNilLimiterJoiner(t *testing.T) {
	// A nil *Limiter is the sequential fork–join: the recursions must
	// sort (and merge stably) without spawning or panicking.
	var lim *parallel.Limiter
	a := randRecords(parCutoff+10, 100, 3)
	orig := append([]rec.Record(nil), a...)
	pqsort(lim, a, 64)
	checkSorted(t, "pqsort nil limiter", a, orig)

	b := append([]rec.Record(nil), orig...)
	msortInPlace(lim, b, make([]rec.Record, len(b)))
	checkSorted(t, "msortInPlace nil limiter", b, orig)
	for i := 1; i < len(b); i++ {
		if b[i].Key == b[i-1].Key && b[i].Value < b[i-1].Value {
			t.Fatalf("msortInPlace nil limiter: not stable at %d", i)
		}
	}
}

func TestHeapSortDirect(t *testing.T) {
	a := randRecords(1000, 0, 8)
	orig := append([]rec.Record(nil), a...)
	heapSort(a)
	checkSorted(t, "heapSort", a, orig)
}

func TestSeqMerge(t *testing.T) {
	x := []rec.Record{{Key: 1}, {Key: 3}, {Key: 5}}
	y := []rec.Record{{Key: 2}, {Key: 3}, {Key: 6}}
	out := make([]rec.Record, 6)
	seqMerge(x, y, out)
	want := []uint64{1, 2, 3, 3, 5, 6}
	for i, w := range want {
		if out[i].Key != w {
			t.Fatalf("out[%d].Key = %d, want %d", i, out[i].Key, w)
		}
	}
}

func TestSeqMergeEmptySides(t *testing.T) {
	x := []rec.Record{{Key: 1}}
	out := make([]rec.Record, 1)
	seqMerge(x, nil, out)
	if out[0].Key != 1 {
		t.Error("merge with empty right failed")
	}
	seqMerge(nil, x, out)
	if out[0].Key != 1 {
		t.Error("merge with empty left failed")
	}
}

func TestSortersQuick(t *testing.T) {
	for _, s := range sorters {
		s := s
		prop := func(keys []uint64) bool {
			a := make([]rec.Record, len(keys))
			for i, k := range keys {
				a[i] = rec.Record{Key: k % 97, Value: uint64(i)} // force duplicates
			}
			orig := append([]rec.Record(nil), a...)
			s.fn(2, a)
			return rec.IsSorted(a) && rec.SamePermutation(orig, a)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
}

func BenchmarkIntrosort1M(b *testing.B) { benchSort(b, func(a []rec.Record) { Introsort(a) }) }
func BenchmarkPQuicksort1M(b *testing.B) {
	benchSort(b, func(a []rec.Record) { ParallelQuicksort(0, a) })
}
func BenchmarkSampleSort1M(b *testing.B)   { benchSort(b, func(a []rec.Record) { SampleSort(0, a) }) }
func BenchmarkMergeSortPar1M(b *testing.B) { benchSort(b, func(a []rec.Record) { MergeSort(0, a) }) }

func benchSort(b *testing.B, fn func(a []rec.Record)) {
	const n = 1 << 20
	orig := randRecords(n, 0, 1)
	a := make([]rec.Record, n)
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(a, orig)
		fn(a)
	}
}
