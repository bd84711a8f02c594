package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/hash"
	"repro/internal/rec"
)

// multiset summarizes a record multiset: its size and an order-insensitive
// checksum of its (key, value) pairs. Any permutation of the input has the
// same multiset; a lost, duplicated or altered record changes it.
type multiset struct {
	N   int
	Sum uint64
}

func recordHash(r rec.Record) uint64 {
	return hash.Mix64(r.Key ^ hash.Fmix64(r.Value+0x9e3779b97f4a7c15))
}

func multisetOf(a []rec.Record) multiset {
	m := multiset{N: len(a)}
	for _, r := range a {
		m.Sum += recordHash(r)
	}
	return m
}

// reduced is the expected output of a sum reduction of a: one record per
// distinct key with the (wrapping) sum of its values.
func reduced(a []rec.Record) multiset {
	sums := make(map[uint64]uint64)
	for _, r := range a {
		sums[r.Key] += r.Value
	}
	m := multiset{N: len(sums)}
	for k, v := range sums {
		m.Sum += recordHash(rec.Record{Key: k, Value: v})
	}
	return m
}

// keySet is a reusable open-addressing set of 64-bit keys used to verify
// that every key's records form a single run. Every op's output is checked
// between timed ops, and a map-based check (rec.IsSemisorted) takes several
// times longer on 2^21 records, which would cost the run samples.
type keySet struct {
	slots  []uint64 // key+1 per occupied slot; 0 is empty
	hasMax bool     // key ^uint64(0), which key+1 cannot encode
	mask   uint64
}

func (s *keySet) reset(n int) {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	if len(s.slots) != size {
		s.slots = make([]uint64, size)
	} else {
		clear(s.slots)
	}
	s.mask = uint64(size - 1)
	s.hasMax = false
}

// add inserts k and reports whether it was absent.
func (s *keySet) add(k uint64) bool {
	if k == ^uint64(0) {
		had := s.hasMax
		s.hasMax = true
		return !had
	}
	for i := hash.Mix64(k) & s.mask; ; i = (i + 1) & s.mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k + 1
			return true
		case k + 1:
			return false
		}
	}
}

// checkSemisorted verifies that out is a semisort of an input with
// multiset want: same records, and each key's records contiguous.
func checkSemisorted(out []rec.Record, want multiset, set *keySet) error {
	if got := multisetOf(out); got != want {
		return fmt.Errorf("output multiset %+v, input %+v", got, want)
	}
	set.reset(len(out))
	for i := 0; i < len(out); {
		k := out[i].Key
		if !set.add(k) {
			return fmt.Errorf("key %#x has a second run starting at %d", k, i)
		}
		for i < len(out) && out[i].Key == k {
			i++
		}
	}
	return nil
}

// checkWordCounts verifies a word-count result against the reference: the
// same words, counts summing to n, and each count exact.
func checkWordCounts(got, want map[string]int64, n int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d distinct words", len(got), len(want))
	}
	var total int64
	for w, c := range got {
		total += c
		if want[w] != c {
			return fmt.Errorf("word %q counted %d, want %d", w, c, want[w])
		}
	}
	if total != int64(n) {
		return fmt.Errorf("counts total %d, want %d", total, n)
	}
	return nil
}

// wantResponse is what one service request must return.
type wantResponse struct {
	Path     string   // endpoint
	In       multiset // the request's records
	Distinct int      // distinct keys among them
	Reduced  multiset // the op=sum reduction of them
}

// checkResponse verifies one service response; buf is scratch for
// decoding record bodies and is returned for reuse.
func checkResponse(status int, body []byte, want wantResponse, buf []rec.Record, set *keySet) ([]rec.Record, error) {
	if status != http.StatusOK {
		return buf, fmt.Errorf("%s: status %d: %.200s", want.Path, status, body)
	}
	switch want.Path {
	case pathGroupBy:
		var g struct{ Records, Groups int }
		if err := json.Unmarshal(body, &g); err != nil {
			return buf, fmt.Errorf("%s: %w", want.Path, err)
		}
		if g.Records != want.In.N || g.Groups != want.Distinct {
			return buf, fmt.Errorf("%s: %d records in %d groups, want %d in %d", want.Path, g.Records, g.Groups, want.In.N, want.Distinct)
		}
		return buf, nil
	}
	buf, err := rec.DecodeRecords(buf[:0], body)
	if err != nil {
		return buf, fmt.Errorf("%s: %w", want.Path, err)
	}
	if want.Path == pathReduce {
		if got := multisetOf(buf); got != want.Reduced {
			return buf, fmt.Errorf("%s: reduced output %+v, want %+v", want.Path, got, want.Reduced)
		}
		return buf, nil
	}
	if err := checkSemisorted(buf, want.In, set); err != nil {
		return buf, fmt.Errorf("%s: %w", want.Path, err)
	}
	return buf, nil
}

// shuffleCounts is what one out-of-core shuffle emitted.
type shuffleCounts struct {
	Records, Groups int
}

// checkShuffle verifies a shuffle's emitted counts against the reference.
func checkShuffle(got, want shuffleCounts) error {
	if got != want {
		return fmt.Errorf("shuffle emitted %d records in %d groups, want %d in %d", got.Records, got.Groups, want.Records, want.Groups)
	}
	return nil
}
