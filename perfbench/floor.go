package main

import (
	"fmt"
	"syscall"
	"time"
)

// floorReps is how many copies one floor measurement makes; it keeps the
// fastest, so one interrupt does not inflate the normalizer.
const floorReps = 3

// A floor is the benchmark-owned memmove normalizer: two buffers the
// benchmark copies between, right after each operation, for as many bytes
// as the operation's input. Successive copies walk through the buffers, so
// a floor much larger than one copy streams from memory instead of
// re-reading cached bytes: batch workloads copy their whole multi-MiB
// input, and each service client copies its small request out of a
// floor larger than the requests' working set.
type floor struct {
	src, dst []byte
	off      int // where the next copy starts
}

// newFloor maps a floor of size bytes per buffer and faults it in. The
// buffers live outside the Go heap, so they neither count toward the
// program's GC pacing nor get scanned; release unmaps them.
func newFloor(size int) (*floor, error) {
	src, err := mapBytes(size)
	if err != nil {
		return nil, err
	}
	dst, err := mapBytes(size)
	if err != nil {
		syscall.Munmap(src)
		return nil, err
	}
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src)
	return &floor{src: src, dst: dst}, nil
}

func mapBytes(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d-byte floor: %w", n, err)
	}
	return b, nil
}

// release unmaps the buffers; the floor must not be used afterwards.
func (f *floor) release() {
	syscall.Munmap(f.src)
	syscall.Munmap(f.dst)
}

// time returns the fastest of floorReps copies of n bytes (n is clamped to
// the buffer size), each from the next stretch of the buffers.
func (f *floor) time(n int) time.Duration {
	n = min(n, len(f.src))
	best := time.Duration(1<<63 - 1)
	for range floorReps {
		if f.off+n > len(f.src) {
			f.off = 0
		}
		src, dst := f.src[f.off:f.off+n], f.dst[f.off:f.off+n]
		t0 := time.Now()
		copy(dst, src)
		best = min(best, time.Since(t0))
		f.off += n
	}
	return best
}

// gbps is the floor's copy bandwidth over its whole buffer, in GB/s of
// bytes copied.
func (f *floor) gbps() float64 {
	return float64(len(f.src)) / f.time(len(f.src)).Seconds() / 1e9
}
