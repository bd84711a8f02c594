package sortint

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
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
	if st.RadixNodes == 0 || st.DovetailNodes != 0 || st.HeavyKeysPlaced != 0 || st.HeavyRecords != 0 {
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
	// Each placed key's records are counted once, in the node that
	// pulled it out: ten keys of about 10^4 records each.
	if st.HeavyRecords < st.HeavyKeysPlaced*8000 || st.HeavyRecords > int64(len(heavy)) {
		t.Fatalf("HeavyRecords = %d for %d placed keys of ~10^4 records", st.HeavyRecords, st.HeavyKeysPlaced)
	}
	// One key: the root places every record.
	for _, procs := range []int{1, 4} {
		eq := dtInputs(50000, 3)["allequal"]
		st = DovetailStats{}
		if err := DovetailSemisort(procs, eq, &st); err != nil {
			t.Fatal(err)
		}
		if st.HeavyKeysPlaced != 1 || st.HeavyRecords != int64(len(eq)) {
			t.Fatalf("p=%d: all-equal input placed %d keys holding %d records, want 1 and %d",
				procs, st.HeavyKeysPlaced, st.HeavyRecords, len(eq))
		}
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

// fewKeyInput draws n records over k random 64-bit keys; Value is the
// input index.
func fewKeyInput(n, k int, seed int64) []rec.Record {
	r := rand.New(rand.NewSource(seed))
	keys := make([]uint64, k)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	a := make([]rec.Record, n)
	for i := range a {
		a[i] = rec.Record{Key: keys[r.Intn(k)], Value: uint64(i)}
	}
	return a
}

// recDigest is FNV-64a over the records' keys and values, in order.
func recDigest(a []rec.Record) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, r := range a {
		binary.LittleEndian.PutUint64(b[:8], r.Key)
		binary.LittleEndian.PutUint64(b[8:], r.Value)
		h.Write(b[:])
	}
	return h.Sum64()
}

// One-key nodes below dtSampleCutoff consume their remaining key bits in
// one count pass instead of one pass per digit. Every pass skipped that
// way was the identity, so the arrangement must not move: the digests
// below pin the output of the recursion that counted every digit, on
// all-equal and few-key inputs, for both entry points at Procs 1 and 2.
func TestDovetailFewKeyArrangementPinned(t *testing.T) {
	for _, c := range []struct {
		keys, n int
		digest  uint64
	}{
		{1, 33, 0x64a3a214830cd360},
		{1, 100, 0xd4cd1b8c0a0c4b11},
		{1, 511, 0xa279a46181b52a9e},
		{1, 1000, 0xa603491ac84179cd},
		{1, 2047, 0xb040be387061044c},
		{1, 2048, 0xe45cba0670e09325},
		{1, 4096, 0x405a005f700d0725},
		{2, 33, 0xa48e23682bfb462f},
		{2, 100, 0xe5061fdaf853c151},
		{2, 511, 0xae5a68fbcdb0385d},
		{2, 1000, 0xdf70cd3ca9280143},
		{2, 2047, 0x843e78ba4f5407db},
		{2, 2048, 0xab9395cee00ec889},
		{2, 4096, 0xe0fdf46ee69fbe49},
		{16, 33, 0x37ebc43c4a8ff3a7},
		{16, 100, 0xf875ee445d4a3c6c},
		{16, 511, 0x8aa1b308ee1ceef7},
		{16, 1000, 0xf1cc70baf42b39a4},
		{16, 2047, 0x7e9e2754768ef515},
		{16, 2048, 0x4f2f939ff2c77194},
		{16, 4096, 0x39038a441344dca6},
	} {
		src := fewKeyInput(c.n, c.keys, int64(c.n*31+c.keys))
		for _, procs := range []int{1, 2} {
			label := fmt.Sprintf("keys=%d/n=%d/p=%d", c.keys, c.n, procs)
			a := append([]rec.Record(nil), src...)
			if err := DovetailSemisort(procs, a, nil); err != nil {
				t.Fatal(err)
			}
			if d := recDigest(a); d != c.digest {
				t.Errorf("%s: Semisort digest %#x, want %#x", label, d, c.digest)
			}
			dst := make([]rec.Record, c.n)
			var tab DovetailTables
			if err := tab.SemisortFrom(context.Background(), procs, src, dst, 0, nil); err != nil {
				t.Fatal(err)
			}
			if d := recDigest(dst); d != c.digest {
				t.Errorf("%s: SemisortFrom digest %#x, want %#x", label, d, c.digest)
			}
			dtCheckGrouped(t, label, dst, src)
		}
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
	// Few keys per node: 2^20 records over 1024 hashed keys. The top
	// passes split them into one-key nodes of about 1000 records, below
	// the sampling cutoff, which finish in one count pass each.
	b.Run("keys1024", func(b *testing.B) {
		const n = 1 << 20
		orig := distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: 1024}, 3)
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

// dtFromInputs returns the SemisortFrom equivalence shapes at size n:
// unique keys, 100 keys (duplicate-heavy, but below the per-node heavy
// share), the records-light shape, and a mix whose three heavy keys make
// the top pass a dovetail pass.
func dtFromInputs(n int, seed int64) map[string][]rec.Record {
	return map[string][]rec.Record{
		"unique":        randRecords(n, 0, seed),
		"heavy100":      randRecords(n, 100, seed),
		"records-light": distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: float64(max(n, 1))}, uint64(seed)),
		"mixed":         dtInputs(n, seed)["mixed"],
	}
}

// dtCheckFrom runs SemisortFrom on src and fails unless dst equals what
// copying src and calling Semisort leaves, record for record, and src is
// bit-unchanged.
func dtCheckFrom(t *testing.T, label string, procs int, src []rec.Record) {
	t.Helper()
	want := append([]rec.Record(nil), src...)
	var wantSt DovetailStats
	if err := DovetailSemisortWith(context.Background(), procs, want, make([]rec.Record, len(src)), &wantSt); err != nil {
		t.Fatalf("%s: Semisort: %v", label, err)
	}
	orig := append([]rec.Record(nil), src...)
	dst := make([]rec.Record, len(src))
	var tab DovetailTables
	var st DovetailStats
	if err := tab.SemisortFrom(context.Background(), procs, src, dst, 0, &st); err != nil {
		t.Fatalf("%s: SemisortFrom: %v", label, err)
	}
	for i := range src {
		if src[i] != orig[i] {
			t.Fatalf("%s: SemisortFrom wrote src at %d", label, i)
		}
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("%s: SemisortFrom differs from copy + Semisort at %d: %v vs %v", label, i, dst[i], want[i])
		}
	}
	if st != wantSt {
		t.Fatalf("%s: routing counters %+v, want %+v", label, st, wantSt)
	}
}

func TestDovetailSemisortFromMatchesCopy(t *testing.T) {
	for _, n := range []int{0, 1, 31, 2047, 1 << 15, 1<<15 + 1} {
		for name, src := range dtFromInputs(n, int64(n)+3) {
			for _, procs := range []int{1, 2, 8} {
				dtCheckFrom(t, fmt.Sprintf("%s/n=%d/p=%d", name, n, procs), procs, src)
			}
		}
	}
}

// Two top-digit halves of 2^17 records each: the top pass's children are
// themselves parallel nodes, so the out-of-place top pass hands them the
// parallel recursion (not only serial subtrees).
func TestDovetailSemisortFromParallelChildren(t *testing.T) {
	const n = 1 << 18
	r := rand.New(rand.NewSource(5))
	src := make([]rec.Record, n)
	for i := range src {
		src[i] = rec.Record{Key: r.Uint64()&(1<<63) | uint64(r.Intn(1<<16)), Value: uint64(i)}
	}
	for _, procs := range []int{1, 2, 8} {
		dtCheckFrom(t, fmt.Sprintf("p=%d", procs), procs, src)
	}
}

// Half the keys share their top 11 bits, so the top pass (8 bits at
// 2^18 records) leaves one child of at least 2^17 records: a parallel
// child that recurses in place through the shared front of the child
// scratch while the other children run as serial subtrees through the
// per-worker slices.
func TestDovetailSemisortFromBigChild(t *testing.T) {
	const n = 1 << 18
	r := rand.New(rand.NewSource(11))
	src := make([]rec.Record, n)
	for i := range src {
		k := r.Uint64()
		if i%2 == 0 {
			k = 0x5a5<<53 | k>>11
		}
		src[i] = rec.Record{Key: k, Value: uint64(i)}
	}
	for _, procs := range []int{2, 8} {
		dtCheckFrom(t, fmt.Sprintf("p=%d", procs), procs, src)
	}
}

func TestDovetailSemisortFromShortBuffers(t *testing.T) {
	src := randRecords(10, 5, 1)
	var tab DovetailTables
	dst := make([]rec.Record, 9)
	err := tab.SemisortFrom(context.Background(), 1, src, dst, 0, nil)
	if !errors.Is(err, ErrShortScratch) {
		t.Fatalf("short dst: err = %v, want ErrShortScratch", err)
	}
	for i := range dst {
		if dst[i] != (rec.Record{}) {
			t.Fatal("short dst: dst written")
		}
	}
}

// A stopped run — canceled before the top pass, or stopped by an injected
// fault at a node below it, after the top pass has scattered src into
// dst — leaves dst a permutation of src and src unwritten.
func TestDovetailSemisortFromCancellation(t *testing.T) {
	src := randRecords(200000, 50, 7)
	orig := append([]rec.Record(nil), src...)
	for _, procs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		dst := make([]rec.Record, len(src))
		var tab DovetailTables
		err := tab.SemisortFrom(ctx, procs, src, dst, 0, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("p=%d: err = %v, want context.Canceled", procs, err)
		}
		if !rec.SamePermutation(orig, dst) {
			t.Fatalf("p=%d: stopped run's dst is not a permutation of src", procs)
		}
		if !rec.SamePermutation(orig, src) || src[0] != orig[0] {
			t.Fatalf("p=%d: stopped run wrote src", procs)
		}

		inj := fault.New(1).Arm(fault.RadixNode, 1, 1) // the top node passes its gate
		fault.Enable(inj)
		clear(dst)
		err = tab.SemisortFrom(context.Background(), procs, src, dst, 0, nil)
		fault.Disable()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("p=%d: fault below the top pass: err = %v, want ErrInjected", procs, err)
		}
		if !rec.SamePermutation(orig, dst) {
			t.Fatalf("p=%d: faulted run's dst is not a permutation of src", procs)
		}
		for i := range src {
			if src[i] != orig[i] {
				t.Fatalf("p=%d: faulted run wrote src at %d", procs, i)
			}
		}
	}
}

// The child-scratch cap binds once the top pass has fixed the children:
// a cap below the largest child's bytes fails with ErrScratchCap before
// the scratch grows, leaving src unwritten and dst a permutation of it;
// a cap at exactly that size succeeds, and the scratch it grows (headroom
// included) stays within the cap.
func TestDovetailSemisortFromScratchCap(t *testing.T) {
	for _, procs := range []int{1, 2} {
		src := dtFromInputs(1<<16, 13)["mixed"]
		orig := append([]rec.Record(nil), src...)
		var probe DovetailTables
		if err := probe.SemisortFrom(context.Background(), procs, src, make([]rec.Record, len(src)), 0, nil); err != nil {
			t.Fatal(err)
		}
		need := int64(cap(probe.scratch)) * rec.RecordSize
		if need == 0 || need >= int64(len(src))*rec.RecordSize/4 {
			t.Fatalf("p=%d: child scratch of %d bytes for a %d-record input", procs, need, len(src))
		}

		var tab DovetailTables
		dst := make([]rec.Record, len(src))
		err := tab.SemisortFrom(context.Background(), procs, src, dst, need-1, nil)
		if !errors.Is(err, ErrScratchCap) {
			t.Fatalf("p=%d: cap %d: err = %v, want ErrScratchCap", procs, need-1, err)
		}
		if tab.scratch != nil {
			t.Fatalf("p=%d: over-cap call grew %d records of scratch", procs, cap(tab.scratch))
		}
		if !rec.SamePermutation(orig, dst) {
			t.Fatalf("p=%d: over-cap call left dst not a permutation of src", procs)
		}
		for i := range src {
			if src[i] != orig[i] {
				t.Fatalf("p=%d: over-cap call wrote src at %d", procs, i)
			}
		}

		// Outgrow a smaller warm scratch under a cap at exactly the need:
		// the regrow's 1/8 headroom is clamped to the cap.
		tab.scratch = make([]rec.Record, 1)
		if err := tab.SemisortFrom(context.Background(), procs, src, dst, need, nil); err != nil {
			t.Fatalf("p=%d: cap %d: %v", procs, need, err)
		}
		if got := int64(cap(tab.scratch)) * rec.RecordSize; got != need {
			t.Fatalf("p=%d: scratch grew to %d bytes under a %d-byte cap", procs, got, need)
		}
		dtCheckGrouped(t, fmt.Sprintf("p=%d/capped", procs), dst, src)
	}
}

// The child scratch is sized to the largest child, exactly the first
// time; once outgrown it reserves 1/8 headroom, so a largest child that
// wanders up to 1/8 above its high-water mark reallocates once, not at
// every new maximum.
func TestDovetailChildScratchRegrow(t *testing.T) {
	const n = 4096 // one serial top pass of dtDigitBits(n, 64) = 10 bits
	shift := uint(64 - dtDigitBits(n, 64))
	input := func(m int) []rec.Record {
		src := make([]rec.Record, n)
		for i := range src {
			k := uint64(i + 1) // the first m records: bin 0, distinct keys
			if i >= m {
				k |= uint64(1+i%1023) << shift // about 3 records per other bin
			}
			src[i] = rec.Record{Key: k, Value: uint64(i)}
		}
		return src
	}
	const m0 = 1000
	var tab DovetailTables
	dst := make([]rec.Record, n)
	if err := tab.SemisortFrom(context.Background(), 1, input(m0), dst, 0, nil); err != nil {
		t.Fatal(err)
	}
	if cap(tab.scratch) != m0 {
		t.Fatalf("first call: cap(scratch) = %d, want exactly the largest child %d", cap(tab.scratch), m0)
	}
	last := &tab.scratch[0]
	reallocs := 0
	for m := m0 + 1; m <= m0+m0/8; m += 8 {
		src := input(m)
		if err := tab.SemisortFrom(context.Background(), 1, src, dst, 0, nil); err != nil {
			t.Fatal(err)
		}
		dtCheckGrouped(t, fmt.Sprintf("m=%d", m), dst, src)
		if b := &tab.scratch[0]; b != last {
			reallocs++
			last = b
		}
	}
	if reallocs != 1 {
		t.Errorf("%d reallocations over largest children %d..%d, want 1", reallocs, m0+1, m0+m0/8)
	}
	if want := (m0 + 1) + (m0+1)/8; cap(tab.scratch) != want {
		t.Errorf("after regrow: cap(scratch) = %d, want %d", cap(tab.scratch), want)
	}
	if got, want := tab.RetainedBytes(), int64(cap(tab.stacks))*4+int64(cap(tab.scratch))*rec.RecordSize; got != want {
		t.Errorf("RetainedBytes() = %d, want %d (stacks plus child scratch)", got, want)
	}
}

func TestDovetailSemisortFromSerialZeroAlloc(t *testing.T) {
	src := randRecords(100000, 100, 5)
	dst := make([]rec.Record, len(src))
	var tab DovetailTables
	var st DovetailStats
	if err := tab.SemisortFrom(context.Background(), 1, src, dst, 0, &st); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := tab.SemisortFrom(context.Background(), 1, src, dst, 0, &st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm serial SemisortFrom allocated %.0f objects per run, want 0", allocs)
	}
}

// FuzzDovetailFrom checks SemisortFrom against copy + Semisort on fuzzed
// keys. data supplies the keys, eight little-endian bytes each (a short
// tail zero-padded); the key list repeats (1 + reps%128) << (scale%8)
// times, capped at dtFuzzMaxRecords records, so that small inputs also
// reach the parallel top pass (2^15 records) and children of that size.
// With reps&0x80 set each repeat is made distinct instead of a
// duplicate: spread over all 64 bits (a light input), or, with
// scale&0x80 also set, shifted by the key count, so that small raw keys
// stay a dense small range whose shared top bits the top passes skip
// and whose first real pass can leave children of 2^15 records and more.
func FuzzDovetailFrom(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(1), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9}, uint8(64), uint8(2), uint8(0))
	f.Add([]byte("dovetail radix semisort, out of place"), uint8(255), uint8(2), uint8(0))
	f.Add([]byte{}, uint8(3), uint8(8), uint8(0))
	// One, two and sixteen keys, repeated into nodes between the insertion
	// cutoff and the sampling cutoff: the one-key nodes' single-pass exit.
	f.Add([]byte{0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0x80}, uint8(100), uint8(1), uint8(0))
	f.Add([]byte("two keys, ab"), uint8(127), uint8(2), uint8(0))
	sixteen := make([]byte, 16*8)
	for i := range sixteen {
		sixteen[i] = byte(i*37 + 11)
	}
	f.Add(sixteen, uint8(100), uint8(2), uint8(0))
	// Eight keys repeated distinct into 2^15 records: the parallel top pass.
	f.Add(sixteen[:64], uint8(0xff), uint8(2), uint8(5))
	// Small-range raw keys 0..7: repeated as duplicates, as a dense range
	// of 1,632 keys, and as a dense range of 2^16 keys whose first real
	// pass splits on bit 15 into two children of 2^15 records.
	small := make([]byte, 8*8)
	for i := 0; i < 8; i++ {
		small[i*8] = byte(i)
	}
	f.Add(small, uint8(100), uint8(2), uint8(3))
	f.Add(small, uint8(0x80|50), uint8(1), uint8(0x80|2))
	f.Add(small, uint8(0xff), uint8(2), uint8(0x80|6))
	f.Add(small, uint8(0xff), uint8(8), uint8(0x80|6))
	f.Fuzz(func(t *testing.T, data []byte, reps, procs, scale uint8) {
		var keys []uint64
		for i := 0; i < len(data); i += 8 {
			var kb [8]byte
			copy(kb[:], data[i:])
			keys = append(keys, binary.LittleEndian.Uint64(kb[:]))
		}
		copies := (1 + int(reps%128)) << (scale % 8)
		if len(keys) > 0 {
			copies = min(copies, max(1, dtFuzzMaxRecords/len(keys)))
		}
		src := make([]rec.Record, 0, len(keys)*copies)
		for c := 0; c < copies; c++ {
			for _, k := range keys {
				switch {
				case reps&0x80 == 0:
				case scale&0x80 != 0:
					k += uint64(c * len(keys))
				default:
					k ^= uint64(c) * 0x9e3779b97f4a7c15
				}
				src = append(src, rec.Record{Key: k, Value: uint64(len(src))})
			}
		}
		dtCheckFrom(t, "fuzz", 1+int(procs%8), src)
	})
}

// dtFuzzMaxRecords caps a FuzzDovetailFrom input: large enough for a
// top-level child of 2^15 records, small enough to keep runs fast.
const dtFuzzMaxRecords = 1 << 17
