package core

import (
	"errors"
	"math"
	"testing"
)

// f(s) must be monotone in the sample count: more hits can never shrink
// the high-probability bound.
func TestSizeEstimateMonotoneInSamples(t *testing.T) {
	logn := math.Log(1 << 20)
	prev := 0
	for s := 0; s <= 4096; s++ {
		got := sizeEstimate(s, logn, 1.25, 1.1, 16)
		if got < prev {
			t.Fatalf("f(%d)=%d < f(%d)=%d", s, got, s-1, prev)
		}
		prev = got
	}
}

// f(s) must also be monotone in slack and in the sampling rate.
func TestSizeEstimateMonotoneInSlackAndRate(t *testing.T) {
	logn := math.Log(1 << 20)
	base := sizeEstimate(100, logn, 1.25, 1.1, 16)
	if more := sizeEstimate(100, logn, 1.25, 2.2, 16); more < base {
		t.Errorf("doubling slack shrank f: %d -> %d", base, more)
	}
	if more := sizeEstimate(100, logn, 1.25, 1.1, 32); more < base {
		t.Errorf("doubling rate shrank f: %d -> %d", base, more)
	}
}

// f(s) must round ⌈slack·f(s)⌉ up to the smallest power of two at or
// above it, and respect the floor of 4.
func TestSizeEstimatePow2(t *testing.T) {
	logn := math.Log(1 << 20)
	for s := 0; s <= 2000; s += 7 {
		cln := 1.25 * logn
		f := (float64(s) + cln + math.Sqrt(cln*cln+2*float64(s)*cln)) * 16
		ceil := max(int(math.Ceil(1.1*f)), 4)
		pow2 := sizeEstimate(s, logn, 1.25, 1.1, 16)
		if pow2&(pow2-1) != 0 {
			t.Fatalf("s=%d: size %d not a power of two", s, pow2)
		}
		if pow2 < ceil || (pow2 > 4 && pow2/2 >= ceil) {
			t.Fatalf("s=%d: size %d is not the least power of two >= %d", s, pow2, ceil)
		}
	}
}

// MaxSlotBytes must clamp the attempt before slots are allocated: with
// the fallback disabled a cap far below the input size surfaces
// ErrOverflow (naming the cap) instead of allocating past it.
func TestMaxSlotBytesClampsSizing(t *testing.T) {
	a := mkRecords(30000, 100, 3)
	_, stats, err := Semisort(a, &Config{
		Procs: 2, ScatterStrategy: ScatterProbing,
		MaxSlotBytes: 1024, DisableFallback: true,
	})
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
	if stats.SlotsAllocated != 0 {
		t.Errorf("SlotsAllocated = %d, want 0 (cap must hit before allocation)", stats.SlotsAllocated)
	}
}
