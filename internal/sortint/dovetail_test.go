package sortint

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/distgen"
	"repro/internal/fault"
	"repro/internal/rec"
)

// dtCheckGrouped verifies that every key's records are contiguous and in
// input order (Value carries the input index in these tests).
func dtCheckGrouped(t *testing.T, label string, got, orig []rec.Record) {
	t.Helper()
	if !rec.SamePermutation(orig, got) {
		t.Fatalf("%s: output is not a permutation of the input", label)
	}
	closed := make(map[uint64]bool)
	i := 0
	for i < len(got) {
		k := got[i].Key
		if closed[k] {
			t.Fatalf("%s: key %d appears in two runs", label, k)
		}
		closed[k] = true
		last := int64(-1)
		for i < len(got) && got[i].Key == k {
			if int64(got[i].Value) <= last {
				t.Fatalf("%s: input order violated within key %d", label, k)
			}
			last = int64(got[i].Value)
			i++
		}
	}
}

// dtInputs returns the distributions the dovetail sort must handle: the
// two parents' home turf plus the degenerate ends and a threshold
// straddler that mixes a few heavy keys into unique noise.
func dtInputs(n int, seed int64) map[string][]rec.Record {
	r := rand.New(rand.NewSource(seed))
	out := map[string][]rec.Record{}
	uniq := make([]rec.Record, n)
	for i := range uniq {
		uniq[i] = rec.Record{Key: r.Uint64(), Value: uint64(i)}
	}
	out["unique"] = uniq
	dup := make([]rec.Record, n)
	for i := range dup {
		dup[i] = rec.Record{Key: uint64(r.Intn(10)), Value: uint64(i)}
	}
	out["heavy10"] = dup
	eq := make([]rec.Record, n)
	for i := range eq {
		eq[i] = rec.Record{Key: 42, Value: uint64(i)}
	}
	out["allequal"] = eq
	mix := make([]rec.Record, n)
	for i := range mix {
		if r.Intn(2) == 0 {
			mix[i] = rec.Record{Key: uint64(r.Intn(3)), Value: uint64(i)}
		} else {
			mix[i] = rec.Record{Key: r.Uint64() | 1<<63, Value: uint64(i)}
		}
	}
	out["mixed"] = mix
	return out
}

func TestDovetailSemisortGroupsStably(t *testing.T) {
	for name, orig := range dtInputs(50000, 11) {
		for _, procs := range []int{1, 2, 4, 8} {
			a := append([]rec.Record(nil), orig...)
			var st DovetailStats
			if err := DovetailSemisort(procs, a, &st); err != nil {
				t.Fatalf("%s/p=%d: %v", name, procs, err)
			}
			dtCheckGrouped(t, name, a, orig)
		}
	}
}

func TestDovetailSemisortDeterministicAcrossProcs(t *testing.T) {
	for name, orig := range dtInputs(60000, 23) {
		var ref []rec.Record
		for _, procs := range []int{1, 2, 8} {
			a := append([]rec.Record(nil), orig...)
			if err := DovetailSemisort(procs, a, nil); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = a
				continue
			}
			for i := range a {
				if a[i] != ref[i] {
					t.Fatalf("%s: procs=%d diverges from procs=1 at %d", name, procs, i)
				}
			}
		}
	}
}

// dtWidthInputs returns inputs whose arrangement depends on the digit
// width rule, so a serial and a parallel recursion that disagreed on a
// node's width (or on where heavy keys surface) would diverge:
//   - heavy keys that only surface below the top node, in a child below
//     seqCutoff (a serial subtree at procs > 1) and in one above it (a
//     parallel child);
//   - sizes straddling dtSampleCutoff and seqCutoff, with a heavy share;
//   - keys that differ only in their low bits, so widths are clipped by
//     the remaining bits, down to dovetail passes narrower than 8 bits;
//   - a long chain of 12-bit frames on one count stack.
func dtWidthInputs(t *testing.T) map[string][]rec.Record {
	t.Helper()
	r := rand.New(rand.NewSource(41))
	out := map[string][]rec.Record{}
	// buried builds nNoise unique keys plus a cluster of nClust records
	// over nKeys keys under one top-digit prefix: a few percent of the
	// whole input (no heavy key at the top), but most of the prefix's
	// child, whose own sample then finds them.
	buried := func(nNoise, nClust, nKeys int) []rec.Record {
		a := make([]rec.Record, 0, nNoise+nClust)
		const prefix = uint64(0x5A5) << (64 - dtWideBits)
		keys := make([]uint64, nKeys)
		for j := range keys {
			keys[j] = prefix | r.Uint64()>>dtWideBits
		}
		for i := 0; i < nNoise+nClust; i++ {
			k := r.Uint64()
			if r.Intn(nNoise+nClust) < nClust {
				k = keys[r.Intn(nKeys)]
			}
			a = append(a, rec.Record{Key: k, Value: uint64(i)})
		}
		return a
	}
	out["buried-serial-child"] = buried(200000, 6000, 3)
	out["buried-parallel-child"] = buried(400000, 40000, 12)
	for _, n := range []int{dtSampleCutoff - 1, dtSampleCutoff, seqCutoff - 1, seqCutoff, seqCutoff + 1} {
		a := make([]rec.Record, n)
		for i := range a {
			k := r.Uint64()
			if r.Intn(4) == 0 {
				k = uint64(r.Intn(3))
			}
			a[i] = rec.Record{Key: k, Value: uint64(i)}
		}
		out[fmt.Sprintf("straddle-%d", n)] = a
	}
	for _, low := range []uint{3, 5, 10, 20} {
		a := make([]rec.Record, 100000)
		base := r.Uint64() &^ (1<<low - 1)
		for i := range a {
			a[i] = rec.Record{Key: base | r.Uint64()&(1<<low-1), Value: uint64(i)}
		}
		out[fmt.Sprintf("lowbits-%d", low)] = a
	}
	// 20000 keys distinct only in their low 16 bits (12-bit nodes), plus
	// six keys sharing bits 15..4 that are rare overall but fill their
	// child, whose sample then finds them with 4 key bits left: a
	// dovetail pass narrower than dtHeavyBits.
	low16 := make([]rec.Record, 0, 22400)
	base := r.Uint64() &^ (1<<16 - 1)
	for i := 0; i < cap(low16); i++ {
		k := base | r.Uint64()&(1<<16-1)
		if r.Intn(9) == 0 {
			k = base | 0xA5A<<4 | uint64(r.Intn(6))
		}
		low16 = append(low16, rec.Record{Key: k, Value: uint64(i)})
	}
	out["lowbits-16-buried"] = low16
	// 20000 records (12-bit nodes) distinct in their low 16 bits, plus one
	// outlier per 12-bit digit above them: every level splits off one
	// record and keeps a 4096-entry frame live for the next.
	chain := make([]rec.Record, 20000)
	for i := range chain {
		chain[i] = rec.Record{Key: uint64(r.Intn(1 << 16)), Value: uint64(i)}
	}
	for j := 0; j < 4; j++ {
		chain[j*97].Key |= 1 << (63 - 12*j)
	}
	out["chain"] = chain
	var hk [dtMaxHeavy]uint64
	for _, name := range []string{"buried-serial-child", "buried-parallel-child", "lowbits-16-buried"} {
		if nh := dtSampleHeavy(out[name], &hk); nh != 0 {
			t.Fatalf("%s: the top node already sees %d heavy keys", name, nh)
		}
	}
	return out
}

func TestDovetailWidthRuleDeterministicAcrossProcs(t *testing.T) {
	for name, orig := range dtWidthInputs(t) {
		var ref []rec.Record
		var refStats DovetailStats
		for _, procs := range []int{1, 2, 8} {
			a := append([]rec.Record(nil), orig...)
			var st DovetailStats
			if err := DovetailSemisort(procs, a, &st); err != nil {
				t.Fatalf("%s/p=%d: %v", name, procs, err)
			}
			dtCheckGrouped(t, fmt.Sprintf("%s/p=%d", name, procs), a, orig)
			if ref == nil {
				ref, refStats = a, st
				continue
			}
			for i := range a {
				if a[i] != ref[i] {
					t.Fatalf("%s: procs=%d diverges from procs=1 at %d", name, procs, i)
				}
			}
			if st != refStats {
				t.Fatalf("%s: procs=%d routed %+v, procs=1 routed %+v", name, procs, st, refStats)
			}
		}
		if strings.Contains(name, "buried") && refStats.DovetailNodes == 0 {
			t.Fatalf("%s: no node below the top extracted the buried heavy keys: %+v", name, refStats)
		}
	}
}

func TestDovetailDigitBits(t *testing.T) {
	for _, c := range []struct{ n, rem, want int }{
		{33, 64, 3},   // one pass to ~4-record leaves
		{1024, 64, 8}, // the children of a 2^21-record light input
		{seqCutoff - 1, 64, dtMaxBits},
		{seqCutoff, 64, 7}, // 13 bits to the leaves: two passes, 7 + 6
		{1 << 21, 64, 10},  // 19 bits: 10 + 9
		{1 << 24, 64, dtWideBits},
		{1 << 26, 64, 8}, // 24 bits exceed two wide passes: 8 + 8 + 8
		{1 << 24, 5, 5},  // clipped by the remaining key bits
		{1000, 2, 2},
	} {
		if got := dtDigitBits(c.n, c.rem); got != c.want {
			t.Errorf("dtDigitBits(%d, %d) = %d, want %d", c.n, c.rem, got, c.want)
		}
	}
}

func TestDovetailSemisortTinyAndEdge(t *testing.T) {
	if err := DovetailSemisort(4, nil, nil); err != nil {
		t.Fatal(err)
	}
	one := []rec.Record{{Key: 7}}
	if err := DovetailSemisort(4, one, nil); err != nil {
		t.Fatal(err)
	}
	few := []rec.Record{{Key: 3, Value: 0}, {Key: 1, Value: 1}, {Key: 3, Value: 2}}
	orig := append([]rec.Record(nil), few...)
	if err := DovetailSemisort(1, few, nil); err != nil {
		t.Fatal(err)
	}
	dtCheckGrouped(t, "tiny", few, orig)
}

func TestDovetailSemisortShortScratch(t *testing.T) {
	a := randRecords(10, 5, 1)
	err := DovetailSemisortWith(context.Background(), 1, a, make([]rec.Record, 4), nil)
	if !errors.Is(err, ErrShortScratch) {
		t.Fatalf("err = %v, want ErrShortScratch", err)
	}
}

func TestDovetailStatsRouting(t *testing.T) {
	// Unique keys: every sampled node is a radix node.
	uniq := randRecords(100000, 0, 3)
	var st DovetailStats
	if err := DovetailSemisort(4, uniq, &st); err != nil {
		t.Fatal(err)
	}
	if st.RadixNodes == 0 || st.DovetailNodes != 0 || st.HeavyKeysPlaced != 0 {
		t.Fatalf("unique keys routed wrong: %+v", st)
	}
	// Ten keys total: the root must dovetail and place heavy keys.
	heavy := randRecords(100000, 10, 3)
	st = DovetailStats{}
	if err := DovetailSemisort(4, heavy, &st); err != nil {
		t.Fatal(err)
	}
	if st.DovetailNodes == 0 || st.HeavyKeysPlaced == 0 {
		t.Fatalf("heavy keys not dovetailed: %+v", st)
	}
}

func TestDovetailSemisortCancellation(t *testing.T) {
	orig := randRecords(200000, 50, 7)
	for _, procs := range []int{1, 4} {
		a := append([]rec.Record(nil), orig...)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := DovetailSemisortWith(ctx, procs, a, make([]rec.Record, len(a)), nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("p=%d: err = %v, want context.Canceled", procs, err)
		}
		if !rec.SamePermutation(orig, a) {
			t.Fatalf("p=%d: stopped run is not a permutation", procs)
		}
	}
}

func TestDovetailSemisortFaultInjection(t *testing.T) {
	orig := randRecords(200000, 50, 7)
	for _, procs := range []int{1, 4} {
		a := append([]rec.Record(nil), orig...)
		inj := fault.New(1).Arm(fault.RadixNode, 0, 1)
		fault.Enable(inj)
		err := DovetailSemisortWith(context.Background(), procs, a, make([]rec.Record, len(a)), nil)
		fault.Disable()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("p=%d: err = %v, want ErrInjected", procs, err)
		}
		if inj.Fired(fault.RadixNode) != 1 {
			t.Fatalf("p=%d: fired %d times", procs, inj.Fired(fault.RadixNode))
		}
		if !rec.SamePermutation(orig, a) {
			t.Fatalf("p=%d: stopped run is not a permutation", procs)
		}
	}
}

func TestDovetailSemisortSerialZeroAlloc(t *testing.T) {
	orig := randRecords(100000, 100, 5)
	a := make([]rec.Record, len(orig))
	scratch := make([]rec.Record, len(orig))
	var st DovetailStats
	allocs := testing.AllocsPerRun(5, func() {
		copy(a, orig)
		if err := DovetailSemisortWith(context.Background(), 1, a, scratch, &st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("serial dovetail allocated %.0f objects per run, want 0", allocs)
	}
}

// dtParallelAllocBound is the allocation budget of a warm procs > 1 run
// on a light input: the run state, the top node's heavy set, and the
// closures and goroutines of its three parallel loops (histogram,
// scatter, children). It does not depend on n: every child of the top
// pass is below seqCutoff and runs a closure-free serial subtree.
// Measured 21 at both sizes below.
const dtParallelAllocBound = 32

func TestDovetailSemisortParallelAllocsBounded(t *testing.T) {
	for _, n := range []int{1 << 18, 1 << 20} {
		orig := distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: float64(n)}, 9)
		a := make([]rec.Record, n)
		scratch := make([]rec.Record, n)
		var tab DovetailTables
		allocs := testing.AllocsPerRun(3, func() {
			copy(a, orig)
			if err := tab.Semisort(context.Background(), 2, a, scratch, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > dtParallelAllocBound {
			t.Errorf("n=%d: procs=2 dovetail allocated %.0f objects per run, want <= %d", n, allocs, dtParallelAllocBound)
		}
		allocs = testing.AllocsPerRun(3, func() {
			copy(a, orig)
			if err := DovetailSemisortWith(context.Background(), 2, a, scratch, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > dtParallelAllocBound {
			t.Errorf("n=%d: procs=2 DovetailSemisortWith allocated %.0f objects per run, want <= %d", n, allocs, dtParallelAllocBound)
		}
	}
}

// Size-adaptive digits can leave a light input with few nodes large
// enough to sample (36 for 10^6 records), so the RadixNode gate must
// also run at the root of every subtree a parallel pass hands out;
// otherwise cancellation could go unseen below the top node.
func TestDovetailSemisortGatesEverySubtree(t *testing.T) {
	const n = 1 << 20
	orig := distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: n}, 3)
	a := append([]rec.Record(nil), orig...)
	inj := fault.New(1).Arm(fault.RadixNode, 64, 1)
	fault.Enable(inj)
	var st DovetailStats
	err := DovetailSemisortWith(context.Background(), 2, a, make([]rec.Record, n), &st)
	fault.Disable()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected (stats %+v, gate reached %d times)", err, st, inj.Count(fault.RadixNode))
	}
	if !rec.SamePermutation(orig, a) {
		t.Fatal("stopped run is not a permutation")
	}
}

func BenchmarkDovetailSemisort1M(b *testing.B) {
	for _, d := range []struct {
		name     string
		keyRange uint64
	}{{"unique", 0}, {"heavy100", 100}} {
		b.Run(d.name, func(b *testing.B) {
			const n = 1 << 20
			orig := randRecords(n, d.keyRange, 1)
			a := make([]rec.Record, n)
			scratch := make([]rec.Record, n)
			b.SetBytes(n * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(a, orig)
				if err := DovetailSemisortWith(context.Background(), 0, a, scratch, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The records-light shape: 2^21 hashed keys uniform over [n], the
	// light region the default planner hands the kernel.
	const n = 1 << 21
	orig := distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: n}, 5)
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("records-light/p=%d", procs), func(b *testing.B) {
			a := make([]rec.Record, n)
			scratch := make([]rec.Record, n)
			b.SetBytes(n * 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(a, orig)
				if err := DovetailSemisortWith(context.Background(), procs, a, scratch, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
