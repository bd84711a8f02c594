// The paper's Phase 2 size estimate f(s) (Section 3.1): the
// high-probability bound on the record count of a bucket whose key (or
// hash range) drew s hits in the 1/SampleRate sample. Only the probing
// scatter sizes slot arrays with it (scatter_probing.go); the counting
// route places at exact offsets, and classification and light-bucket
// merging compare raw sample counts with Delta (classify.go, buckets.go).
package core

import (
	"math"
	"math/bits"
)

// sizeEstimate is the paper's f(s) multiplied by slack and rounded up to a
// power of two (Section 4, Phase 2): the high-probability bound on the
// record count of a bucket with s sample hits. The power of two lets the
// scatter turn a random word into a slot index with one mask.
func sizeEstimate(s int, logn float64, c, slack float64, rate int) int {
	cln := c * logn
	f := (float64(s) + cln + math.Sqrt(cln*cln+2*float64(s)*cln)) * float64(rate)
	size := int(math.Ceil(slack * f))
	if size < 4 {
		size = 4
	}
	return 1 << uint(bits.Len(uint(size-1)))
}
