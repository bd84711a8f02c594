// Command semisortfile semisorts a binary file of 16-byte records (8-byte
// little-endian key, 8-byte payload — the format written by gendata) and
// writes the reordered records, printing the execution statistics.
//
// Usage:
//
//	gendata -dist zipfian -param 1e5 -n 1e6 -o in.bin
//	semisortfile -in in.bin -out out.bin -procs 8 -verify
//
// With -spill the input is never loaded whole: records stream through
// the out-of-core shuffle (package external), spilling to partition
// files sized by -mem (or -partitions), semisorting one partition at a
// time and streaming the groups to -out:
//
//	semisortfile -in big.bin -out out.bin -spill -mem 256m -compress
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	semisort "repro"
	"repro/external"
)

func main() {
	var (
		in         = flag.String("in", "", "input file of 16-byte records (required)")
		out        = flag.String("out", "", "output file (omit to only time and verify)")
		procs      = flag.Int("procs", 0, "worker count (0 = GOMAXPROCS)")
		seed       = flag.Uint64("seed", 1, "algorithm seed")
		verify     = flag.Bool("verify", false, "check the output is a semisorted permutation")
		spill      = flag.Bool("spill", false, "out-of-core mode: stream through spill files instead of loading the input whole")
		mem        = flag.String("mem", "256m", "spill mode: per-partition record-memory budget (accepts k/m/g suffixes)")
		partitions = flag.Int("partitions", 0, "spill mode: partition count override (0 = derive from -mem)")
		compress   = flag.Bool("compress", false, "spill mode: DEFLATE-compress spill blocks")
		tempdir    = flag.String("tempdir", "", "spill mode: directory for spill files (default: system temp)")
	)
	flag.Parse()
	if *in == "" {
		fatalf("-in is required")
	}

	if *spill {
		// runSpill returns instead of exiting so its deferred cleanup
		// (output .tmp removal, spill-directory discard) runs on failure.
		if err := runSpill(*in, *out, *procs, *seed, *mem, *partitions, *compress, *tempdir, *verify); err != nil {
			fatalf("%v", err)
		}
		return
	}

	recs, err := readRecords(*in)
	if err != nil {
		fatalf("read %s: %v", *in, err)
	}
	fmt.Fprintf(os.Stderr, "read %d records from %s\n", len(recs), *in)

	t0 := time.Now()
	sorted, stats, err := semisort.RecordsWithStats(recs, &semisort.Config{Procs: *procs, Seed: *seed})
	if err != nil {
		fatalf("semisort: %v", err)
	}
	elapsed := time.Since(t0)

	fmt.Fprintf(os.Stderr, "semisorted in %v (%.1f Mrec/s)\n",
		elapsed, float64(len(recs))/elapsed.Seconds()/1e6)
	fmt.Fprintf(os.Stderr, "  route=%s sample=%d heavyKeys=%d lightBuckets=%d heavyRecords=%d slots=%d retries=%d\n",
		stats.ScatterStrategy, stats.SampleSize, stats.HeavyKeys, stats.LightBuckets, stats.HeavyRecords,
		stats.SlotsAllocated, stats.Retries)
	fmt.Fprintf(os.Stderr, "  phases: sample+sort=%v buckets=%v scatter=%v localsort=%v pack=%v\n",
		stats.Phases.SampleSort, stats.Phases.Buckets, stats.Phases.Scatter,
		stats.Phases.LocalSort, stats.Phases.Pack)

	if *verify {
		if !semisort.IsSemisorted(sorted) {
			fatalf("verification failed: output not semisorted")
		}
		if len(sorted) != len(recs) {
			fatalf("verification failed: length changed")
		}
		groups := 0
		semisort.Runs(sorted, func(s, e int) { groups++ })
		fmt.Fprintf(os.Stderr, "verified: semisorted, %d groups\n", groups)
	}

	if *out != "" {
		if err := writeRecords(*out, sorted); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

// runSpill is the out-of-core path: the input streams through the
// external shuffle in batches, partitions spill to disk, and the groups
// stream to the output file (atomic rename, like writeRecords) without
// the whole input ever being resident.
func runSpill(in, out string, procs int, seed uint64, mem string, partitions int, compress bool, tempdir string, verify bool) error {
	f, err := os.Open(in)
	if err != nil {
		return fmt.Errorf("open %s: %v", in, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("stat %s: %v", in, err)
	}
	if st.Size()%16 != 0 {
		return fmt.Errorf("file size %d is not a multiple of 16", st.Size())
	}
	n := st.Size() / 16

	cfg := external.Config{TempDir: tempdir, Partitions: partitions}
	if partitions <= 0 {
		budget, err := parseBytes(mem)
		if err != nil {
			return fmt.Errorf("bad -mem: %v", err)
		}
		cfg.Partitions = external.PartitionsFor(st.Size(), budget)
	}
	if compress {
		cfg.Compression = external.CompressFlate
	}
	cfg.Semisort.Procs = procs
	cfg.Semisort.Seed = seed

	sh, err := external.NewShuffler(&cfg)
	if err != nil {
		return fmt.Errorf("spill: %v", err)
	}
	defer sh.Discard()

	t0 := time.Now()
	r := bufio.NewReaderSize(f, 1<<20)
	batch := make([]semisort.Record, 0, 1<<16)
	var buf [16]byte
	for i := int64(0); i < n; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return fmt.Errorf("read %s: %v", in, err)
		}
		batch = append(batch, semisort.Record{
			Key:   binary.LittleEndian.Uint64(buf[0:8]),
			Value: binary.LittleEndian.Uint64(buf[8:16]),
		})
		if len(batch) == cap(batch) {
			if err := sh.AddBatch(batch); err != nil {
				return fmt.Errorf("spill: %v", err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := sh.AddBatch(batch); err != nil {
			return fmt.Errorf("spill: %v", err)
		}
	}
	spillDone := time.Since(t0)
	fmt.Fprintf(os.Stderr, "spilled %d records across %d partitions in %v\n", n, cfg.Partitions, spillDone)

	var w *bufio.Writer
	var of *os.File
	tmp := ""
	if out != "" {
		tmp = out + ".tmp"
		of, err = os.Create(tmp)
		if err != nil {
			return fmt.Errorf("create %s: %v", tmp, err)
		}
		// Atomic-output guarantee: any failure from here on removes the
		// temp file; out is only ever replaced by a complete rename.
		defer func() {
			if tmp != "" {
				if of != nil {
					of.Close()
				}
				os.Remove(tmp)
			}
		}()
		w = bufio.NewWriterSize(of, 1<<20)
	}

	var groups, written int64
	var seen map[uint64]bool
	if verify {
		seen = make(map[uint64]bool)
	}
	err = sh.ForEachGroup(func(key uint64, group []semisort.Record) error {
		groups++
		written += int64(len(group))
		if seen != nil {
			if seen[key] {
				return fmt.Errorf("key %d emitted in two groups", key)
			}
			seen[key] = true
		}
		if w != nil {
			var b [16]byte
			for _, rec := range group {
				binary.LittleEndian.PutUint64(b[0:8], rec.Key)
				binary.LittleEndian.PutUint64(b[8:16], rec.Value)
				if _, err := w.Write(b[:]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("group: %v", err)
	}
	elapsed := time.Since(t0)
	if written != n {
		return fmt.Errorf("emitted %d of %d records", written, n)
	}

	stats := sh.Stats()
	fmt.Fprintf(os.Stderr, "semisorted out-of-core in %v (%.1f Mrec/s): %d groups\n",
		elapsed, float64(n)/elapsed.Seconds()/1e6, groups)
	fmt.Fprintf(os.Stderr, "  spill: %d blocks, %.1f MiB on disk of %.1f MiB raw; read back %.1f MiB\n",
		stats.SpillBlocks, float64(stats.SpillBytes)/(1<<20),
		float64(stats.RawSpillBytes)/(1<<20), float64(stats.BytesRead)/(1<<20))
	fmt.Fprintf(os.Stderr, "  pipeline: %d spill stalls, %d prefetch stalls; semisort attempts=%d retries=%d fallbacks=%d\n",
		stats.SpillStalls, stats.PrefetchStalls, stats.Attempts, stats.Retries, stats.Fallbacks)
	if verify {
		fmt.Fprintf(os.Stderr, "verified: %d distinct keys, each in one group\n", groups)
	}

	if out != "" {
		if err := w.Flush(); err != nil {
			return fmt.Errorf("write %s: %v", tmp, err)
		}
		if err := of.Close(); err != nil {
			return fmt.Errorf("close %s: %v", tmp, err)
		}
		of = nil
		if err := os.Rename(tmp, out); err != nil {
			return fmt.Errorf("rename %s: %v", out, err)
		}
		tmp = "" // renamed into place; nothing for the cleanup defer
		fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	}
	return nil
}

// parseBytes accepts a byte count with an optional k/m/g suffix.
func parseBytes(s string) (int64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("cannot parse byte count %q", s)
	}
	return int64(v) * mult, nil
}

func readRecords(path string) ([]semisort.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size()%16 != 0 {
		return nil, fmt.Errorf("file size %d is not a multiple of 16", st.Size())
	}
	recs := make([]semisort.Record, st.Size()/16)
	r := bufio.NewReaderSize(f, 1<<20)
	var buf [16]byte
	for i := range recs {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		recs[i] = semisort.Record{
			Key:   binary.LittleEndian.Uint64(buf[0:8]),
			Value: binary.LittleEndian.Uint64(buf[8:16]),
		}
	}
	return recs, nil
}

// writeRecords writes atomically: records go to a temporary file that is
// renamed over path only after a successful flush and close, so a failure
// mid-write (full disk, interrupt) never leaves a truncated output file —
// and never clobbers a pre-existing one.
func writeRecords(path string, recs []semisort.Record) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var buf [16]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(buf[0:8], r.Key)
		binary.LittleEndian.PutUint64(buf[8:16], r.Value)
		if _, err = w.Write(buf[:]); err != nil {
			return err
		}
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "semisortfile: "+format+"\n", args...)
	os.Exit(2)
}
