package rec

import (
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// Length-prefixed batch framing for streaming records over pipes and
// sockets: each frame is a 4-byte little-endian record count followed by
// count records of 16 bytes each (8-byte little-endian key, 8-byte
// little-endian payload — the gendata file layout). A zero count is a
// valid, empty frame. The framing carries no checksum; it is meant for
// same-host pipes (gendata -stream | semisortd -pipe) and loopback
// sockets, where the kernel already guarantees integrity.

// MaxFrameRecords bounds the record count a reader accepts in one frame
// (64 Mi records = 1 GiB of payload), so a corrupt or hostile length
// prefix cannot trigger an arbitrary allocation.
const MaxFrameRecords = 64 << 20

// RecordSize is the wire size of one record in bytes.
const RecordSize = 16

// The wire layout is the in-memory layout of a Record on a little-endian
// host: these four declarations fail to compile unless Record is exactly
// 16 bytes with Key at offset 0 and Value at offset 8, so the fast codec
// below may copy []Record through a byte view.
var (
	_ [unsafe.Sizeof(Record{}) - RecordSize]struct{}
	_ [RecordSize - unsafe.Sizeof(Record{})]struct{}
	_ [unsafe.Offsetof(Record{}.Value) - 8]struct{}
	_ [8 - unsafe.Offsetof(Record{}.Value)]struct{}
)

// memmoveCodec selects the one-copy codec: on a little-endian host the
// wire bytes of a record slice are its memory, so encoding and decoding
// are one memmove. Big-endian hosts run the portable per-field loop (a
// variable, not a constant, so tests can force the portable path).
var memmoveCodec = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// recordBytes is the byte view of recs' backing memory.
func recordBytes(recs []Record) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(recs))), len(recs)*RecordSize)
}

// AppendRecords appends the wire encoding of recs (without any length
// prefix) to dst and returns the extended slice. dst is reallocated at
// most once per call.
func AppendRecords(dst []byte, recs []Record) []byte {
	off := len(dst)
	dst = grow(dst, len(recs)*RecordSize)
	b := dst[off:]
	if memmoveCodec {
		copy(b, recordBytes(recs))
		return dst
	}
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[:8], r.Key)
		binary.LittleEndian.PutUint64(b[8:RecordSize], r.Value)
		b = b[RecordSize:]
	}
	return dst
}

// DecodeRecords decodes len(b)/16 records from their wire encoding,
// appending to dst (pass nil to allocate). dst is reallocated at most
// once per call. It fails if len(b) is not a multiple of RecordSize.
func DecodeRecords(dst []Record, b []byte) ([]Record, error) {
	if len(b)%RecordSize != 0 {
		return dst, fmt.Errorf("rec: %d payload bytes is not a multiple of the %d-byte record size", len(b), RecordSize)
	}
	off := len(dst)
	dst = grow(dst, len(b)/RecordSize)
	out := dst[off:]
	if memmoveCodec {
		copy(recordBytes(out), b)
		return dst, nil
	}
	for i := range out {
		out[i] = Record{
			Key:   binary.LittleEndian.Uint64(b[:8]),
			Value: binary.LittleEndian.Uint64(b[8:RecordSize]),
		}
		b = b[RecordSize:]
	}
	return dst, nil
}

// grow extends s by n elements, reallocating at most once: straight to
// the new length, or to twice the old capacity when that is larger, so
// that a caller appending chunk by chunk still copies O(total) bytes.
func grow[E any](s []E, n int) []E {
	need := len(s) + n
	if need <= cap(s) {
		return s[:need]
	}
	g := make([]E, need, max(need, 2*cap(s)))
	copy(g, s)
	return g
}

// WriteFrame writes one length-prefixed frame holding recs to w.
func WriteFrame(w io.Writer, recs []Record) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(recs)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("rec: write frame header: %w", err)
	}
	// Encode in bounded chunks so huge batches don't need a full-size
	// scratch buffer.
	const chunk = 4096
	buf := make([]byte, 0, chunk*RecordSize)
	for len(recs) > 0 {
		n := min(len(recs), chunk)
		buf = AppendRecords(buf[:0], recs[:n])
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("rec: write frame payload: %w", err)
		}
		recs = recs[n:]
	}
	return nil
}

// ReadFrame reads one frame from r, appending its records to dst (pass
// nil to allocate) and returning the extended slice. At a clean
// end-of-stream (EOF before any header byte) it returns io.EOF; a stream
// cut inside a frame returns io.ErrUnexpectedEOF with got/want counts.
func ReadFrame(r io.Reader, dst []Record) ([]Record, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return dst, io.EOF
		}
		return dst, fmt.Errorf("rec: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameRecords {
		return dst, fmt.Errorf("rec: frame header claims %d records, limit %d", n, MaxFrameRecords)
	}
	var buf [256 * RecordSize]byte
	remaining := int(n)
	for remaining > 0 {
		c := min(remaining, len(buf)/RecordSize)
		if _, err := io.ReadFull(r, buf[:c*RecordSize]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return dst, fmt.Errorf("rec: frame truncated: got %d of %d records: %w",
					int(n)-remaining, n, io.ErrUnexpectedEOF)
			}
			return dst, fmt.Errorf("rec: read frame payload: %w", err)
		}
		dst, _ = DecodeRecords(dst, buf[:c*RecordSize])
		remaining -= c
	}
	return dst, nil
}
