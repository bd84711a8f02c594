package rec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Checksummed block framing for spill files: the out-of-core shuffle
// writes each staged batch of records as one self-describing block, so a
// partition file is a concatenation of blocks that can be decoded, and
// integrity-checked, independently. Unlike the pipe framing in frame.go,
// blocks survive a process crash on disk, so every block carries a
// CRC32-C of its payload and an optional DEFLATE compression flag —
// corruption (a torn write, a truncated file, bit rot) is detected at
// read-back rather than surfacing as silently wrong groups.
//
// Layout (little-endian):
//
//	[0]     magic byte 0xB5
//	[1]     flags (bit 0: payload is DEFLATE-compressed)
//	[2:6]   record count
//	[6:10]  payload byte length (after compression)
//	[10:14] CRC32-C of the payload bytes as stored
//	[14:16] reserved, must be zero
//	[16:]   payload

// BlockHeaderSize is the fixed size of a block header in bytes.
const BlockHeaderSize = 16

// blockMagic tags the first byte of every block header, so a reader that
// lands mid-stream (a corrupt length in the previous block) fails fast
// instead of misparsing payload bytes as a header.
const blockMagic = 0xB5

// blockFlagFlate marks a DEFLATE-compressed payload.
const blockFlagFlate = 1 << 0

// MaxBlockRecords bounds the record count a decoder accepts in one block
// (16 Mi records = 256 MiB raw), so a corrupt header cannot trigger an
// arbitrary allocation.
const MaxBlockRecords = 16 << 20

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64), shared by block checksums and partition manifests.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumBlock returns the CRC32-C of b, the checksum used throughout
// the block framing (exported so manifests can checksum whole partition
// files with the same polynomial).
func ChecksumBlock(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// A BlockEncoder appends framed blocks to byte slices. It owns the
// DEFLATE state and raw-encoding scratch, so a long-lived encoder (one
// per spill writer) encodes without per-block allocation. The zero value
// is ready. Not safe for concurrent use.
type BlockEncoder struct {
	fw  *flate.Writer
	raw []byte
}

// AppendBlock appends one framed block holding recs to dst and returns
// the extended slice. With compress set the payload is DEFLATE-compressed
// (BestSpeed — the trade is CPU for disk bandwidth, not ratio); blocks
// that do not shrink are stored raw, so compression never inflates a
// partition file beyond the header overhead.
func (e *BlockEncoder) AppendBlock(dst []byte, recs []Record, compress bool) ([]byte, error) {
	if len(recs) > MaxBlockRecords {
		return dst, fmt.Errorf("rec: block of %d records exceeds the %d-record limit", len(recs), MaxBlockRecords)
	}
	start := len(dst)
	var hdr [BlockHeaderSize]byte
	dst = append(dst, hdr[:]...)

	flags := byte(0)
	if compress && len(recs) > 0 {
		e.raw = AppendRecords(e.raw[:0], recs)
		if e.fw == nil {
			// BestSpeed: the shuffle compresses to trade CPU for disk
			// bandwidth; higher levels cost more CPU than the bandwidth
			// they buy on 16-byte records.
			e.fw, _ = flate.NewWriter(nil, flate.BestSpeed)
		}
		w := sliceWriter{buf: dst}
		e.fw.Reset(&w)
		if _, err := e.fw.Write(e.raw); err != nil {
			return dst[:start], fmt.Errorf("rec: compress block: %w", err)
		}
		if err := e.fw.Close(); err != nil {
			return dst[:start], fmt.Errorf("rec: compress block: %w", err)
		}
		if len(w.buf)-start-BlockHeaderSize < len(e.raw) {
			dst = w.buf
			flags |= blockFlagFlate
		} else {
			// Compression did not pay (near-unique keys); store raw.
			dst = append(dst[:start+BlockHeaderSize], e.raw...)
		}
	} else {
		dst = AppendRecords(dst, recs)
	}

	payload := dst[start+BlockHeaderSize:]
	h := dst[start : start+BlockHeaderSize]
	h[0] = blockMagic
	h[1] = flags
	binary.LittleEndian.PutUint32(h[2:6], uint32(len(recs)))
	binary.LittleEndian.PutUint32(h[6:10], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[10:14], ChecksumBlock(payload))
	h[14], h[15] = 0, 0
	return dst, nil
}

// sliceWriter appends to a byte slice through the io.Writer interface,
// letting flate stream straight into the destination buffer.
type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// A BlockDecoder decodes framed blocks. It owns the DEFLATE inflater and
// its scratch, so a long-lived decoder (one per prefetch buffer) decodes
// without per-block allocation beyond record-slice growth. The zero
// value is ready. Not safe for concurrent use.
type BlockDecoder struct {
	fr  io.ReadCloser
	src bytes.Reader
}

// DecodeBlock decodes the block at the front of b, appending its records
// to dst. It returns the extended slice and the number of bytes of b the
// block occupied, verifying the magic byte, the header's self-consistency
// and the payload CRC before touching record content.
func (d *BlockDecoder) DecodeBlock(dst []Record, b []byte) ([]Record, int, error) {
	return d.decodeBlock(dst, b, 0, false)
}

// DecodeBlockSum is DecodeBlock for a caller that has already computed
// the CRC32-C of the block's payload bytes (CRCCombiner.SumBlocks does,
// while checksumming a whole file): the header's CRC is checked against
// sum instead of reading the payload a second time.
func (d *BlockDecoder) DecodeBlockSum(dst []Record, b []byte, sum uint32) ([]Record, int, error) {
	return d.decodeBlock(dst, b, sum, true)
}

func (d *BlockDecoder) decodeBlock(dst []Record, b []byte, got uint32, summed bool) ([]Record, int, error) {
	if len(b) < BlockHeaderSize {
		return dst, 0, fmt.Errorf("rec: block truncated: %d bytes left, need %d-byte header: %w",
			len(b), BlockHeaderSize, io.ErrUnexpectedEOF)
	}
	if b[0] != blockMagic {
		return dst, 0, fmt.Errorf("rec: bad block magic 0x%02x (corrupt block boundary)", b[0])
	}
	flags := b[1]
	count := int(binary.LittleEndian.Uint32(b[2:6]))
	plen := int(binary.LittleEndian.Uint32(b[6:10]))
	sum := binary.LittleEndian.Uint32(b[10:14])
	if b[14] != 0 || b[15] != 0 {
		return dst, 0, fmt.Errorf("rec: bad block header: reserved bytes set")
	}
	if count > MaxBlockRecords {
		return dst, 0, fmt.Errorf("rec: block header claims %d records, limit %d", count, MaxBlockRecords)
	}
	if flags&blockFlagFlate == 0 && plen != count*RecordSize {
		return dst, 0, fmt.Errorf("rec: raw block header inconsistent: %d records but %d payload bytes", count, plen)
	}
	if len(b) < BlockHeaderSize+plen {
		return dst, 0, fmt.Errorf("rec: block truncated: header claims %d payload bytes, %d left: %w",
			plen, len(b)-BlockHeaderSize, io.ErrUnexpectedEOF)
	}
	payload := b[BlockHeaderSize : BlockHeaderSize+plen]
	if !summed {
		got = ChecksumBlock(payload)
	}
	if got != sum {
		return dst, 0, fmt.Errorf("rec: block checksum mismatch: got %08x, header says %08x (corrupt payload)", got, sum)
	}

	if flags&blockFlagFlate != 0 {
		d.src.Reset(payload)
		if d.fr == nil {
			d.fr = flate.NewReader(&d.src)
		} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
			return dst, 0, fmt.Errorf("rec: reset inflater: %w", err)
		}
		// Inflate through a bounded stack chunk, which serves both codecs
		// (on little-endian hosts DecodeRecords copies it as one memmove).
		var chunk [256 * RecordSize]byte
		remaining := count
		for remaining > 0 {
			c := min(remaining, len(chunk)/RecordSize)
			if _, err := io.ReadFull(d.fr, chunk[:c*RecordSize]); err != nil {
				return dst, 0, fmt.Errorf("rec: inflate block: got %d of %d records: %w", count-remaining, count, err)
			}
			dst, _ = DecodeRecords(dst, chunk[:c*RecordSize])
			remaining -= c
		}
		// A trailing byte after the expected records means the header
		// lied about the count; surface it rather than dropping data.
		var one [1]byte
		if n, _ := d.fr.Read(one[:]); n != 0 {
			return dst, 0, fmt.Errorf("rec: compressed block holds more than the %d records its header claims", count)
		}
	} else {
		var err error
		if dst, err = DecodeRecords(dst, payload); err != nil {
			return dst, 0, err
		}
	}
	return dst, BlockHeaderSize + plen, nil
}
