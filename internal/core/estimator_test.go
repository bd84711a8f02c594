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
	for _, exact := range []bool{false, true} {
		prev := 0
		for s := 0; s <= 4096; s++ {
			got := sizeEstimate(s, logn, 1.25, 1.1, 16, exact)
			if got < prev {
				t.Fatalf("exact=%v: f(%d)=%d < f(%d)=%d", exact, s, got, s-1, prev)
			}
			prev = got
		}
	}
}

// f(s) must also be monotone in slack and in the sampling rate.
func TestSizeEstimateMonotoneInSlackAndRate(t *testing.T) {
	logn := math.Log(1 << 20)
	base := sizeEstimate(100, logn, 1.25, 1.1, 16, true)
	if more := sizeEstimate(100, logn, 1.25, 2.2, 16, true); more < base {
		t.Errorf("doubling slack shrank f: %d -> %d", base, more)
	}
	if more := sizeEstimate(100, logn, 1.25, 1.1, 32, true); more < base {
		t.Errorf("doubling rate shrank f: %d -> %d", base, more)
	}
}

// Power-of-two sizing must return the smallest power of two at or above
// the exact size; exact sizing returns the ceiling itself, and both
// respect the floor of 4.
func TestSizeEstimatePow2VsExact(t *testing.T) {
	logn := math.Log(1 << 20)
	for s := 0; s <= 2000; s += 7 {
		exact := sizeEstimate(s, logn, 1.25, 1.1, 16, true)
		pow2 := sizeEstimate(s, logn, 1.25, 1.1, 16, false)
		if exact < 4 || pow2 < 4 {
			t.Fatalf("s=%d: sizes %d/%d below the floor of 4", s, exact, pow2)
		}
		if pow2&(pow2-1) != 0 {
			t.Fatalf("s=%d: pow2 size %d not a power of two", s, pow2)
		}
		if pow2 < exact || (pow2 > 4 && pow2/2 >= exact) {
			t.Fatalf("s=%d: pow2 size %d is not the least power of two >= %d", s, pow2, exact)
		}
	}
}

// boostSize must never shrink a bucket, scale by the multiplier, and
// preserve the power-of-two invariant unless exact sizing is on.
func TestBoostSize(t *testing.T) {
	if got := boostSize(64, 4, false); got != 256 {
		t.Errorf("boostSize(64, 4, pow2) = %d, want 256", got)
	}
	if got := boostSize(100, 4, true); got != 400 {
		t.Errorf("boostSize(100, 4, exact) = %d, want 400", got)
	}
	if got := boostSize(100, 4, false); got != 512 {
		t.Errorf("boostSize(100, 4, pow2) = %d, want 512", got)
	}
	if got := boostSize(64, 0.5, false); got != 64 {
		t.Errorf("boostSize with multiplier < 1 shrank the bucket: %d", got)
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
