package rec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	batches := [][]Record{
		nil,
		{{Key: 1, Value: 2}},
		make([]Record, 10000),
	}
	for i := range batches[2] {
		batches[2][i] = Record{Key: uint64(i % 37), Value: uint64(i)}
	}

	var buf bytes.Buffer
	for _, b := range batches {
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}

	for i, want := range batches {
		got, err := ReadFrame(&buf, nil)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: got %d records, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("frame %d record %d: got %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
	if _, err := ReadFrame(&buf, nil); err != io.EOF {
		t.Fatalf("at end of stream: err = %v, want io.EOF", err)
	}
}

func TestFrameAppendsToDst(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []Record{{Key: 7, Value: 8}}); err != nil {
		t.Fatal(err)
	}
	dst := []Record{{Key: 1, Value: 1}}
	out, err := ReadFrame(&buf, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != (Record{Key: 1, Value: 1}) || out[1] != (Record{Key: 7, Value: 8}) {
		t.Fatalf("ReadFrame did not append: %+v", out)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]Record, 100)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Cut inside the payload: ErrUnexpectedEOF, not a clean EOF.
	_, err := ReadFrame(bytes.NewReader(full[:4+50*RecordSize+3]), nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("payload cut: err = %v, want ErrUnexpectedEOF", err)
	}
	// Cut inside the header: also an error, not EOF.
	_, err = ReadFrame(bytes.NewReader(full[:2]), nil)
	if err == nil || errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header cut: err = %v, want unexpected-EOF error", err)
	}
}

func TestFrameRejectsHugeHeader(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr), nil); err == nil {
		t.Fatal("4-billion-record header accepted")
	}
}

func TestDecodeRecordsBadLength(t *testing.T) {
	if _, err := DecodeRecords(nil, make([]byte, 17)); err == nil {
		t.Fatal("17-byte payload accepted")
	}
}

// codecRecords returns n records whose keys and values fill all 8 bytes.
func codecRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: uint64(i) * 0x9e3779b97f4a7c15, Value: ^uint64(i) << 7}
	}
	return recs
}

// TestCodecWireLayout pins the wire bytes against a per-field reference
// encoding and checks that both codec calls extend a non-empty dst.
func TestCodecWireLayout(t *testing.T) {
	recs := codecRecords(1000)
	var want []byte
	for _, r := range recs {
		want = binary.LittleEndian.AppendUint64(want, r.Key)
		want = binary.LittleEndian.AppendUint64(want, r.Value)
	}
	prefix := []byte("hdr")
	got := AppendRecords(append([]byte(nil), prefix...), recs)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatal("AppendRecords changed the wire bytes")
	}
	head := Record{Key: 1, Value: 2}
	dec, err := DecodeRecords([]Record{head}, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(recs)+1 || dec[0] != head || !slices.Equal(dec[1:], recs) {
		t.Fatal("DecodeRecords did not append the original records")
	}
}

// TestCodecGrowsOnce checks that the codec grows dst straight to its
// final length: one allocation for a nil dst over a 1 MiB payload, none
// for a presized one.
func TestCodecGrowsOnce(t *testing.T) {
	recs := codecRecords((1 << 20) / RecordSize)
	wire := AppendRecords(nil, recs)
	decoded := make([]Record, 0, len(recs))
	encoded := make([]byte, 0, len(wire))
	for _, tc := range []struct {
		name string
		want float64
		f    func()
	}{
		{"DecodeRecords/nil", 1, func() { DecodeRecords(nil, wire) }},
		{"DecodeRecords/presized", 0, func() { decoded, _ = DecodeRecords(decoded[:0], wire) }},
		{"AppendRecords/nil", 1, func() { AppendRecords(nil, recs) }},
		{"AppendRecords/presized", 0, func() { encoded = AppendRecords(encoded[:0], recs) }},
	} {
		if got := testing.AllocsPerRun(5, tc.f); got != tc.want {
			t.Errorf("%s: %v allocations per call, want %v", tc.name, got, tc.want)
		}
	}
}
