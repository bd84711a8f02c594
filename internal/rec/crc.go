package rec

import (
	"encoding/binary"
	"hash/crc32"
)

// CRC32-C combination. A spill partition's manifest CRC covers the whole
// file, and the file is a concatenation of framed blocks whose headers
// already carry their payload CRC. Combining — CRC(a‖b) from CRC(a),
// CRC(b) and len(b), zlib's crc32_combine over GF(2) — lets the writer
// and the reader build the file CRC from the block CRCs instead of
// checksumming every byte a second time. Polynomials are in the
// bit-reflected form hash/crc32 uses: bit 31 is x^0.

// castagnoliReflected is the reflected CRC32-C polynomial.
const castagnoliReflected = 0x82f63b78

// mulModP returns a·b modulo the CRC32-C polynomial.
func mulModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				break
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ castagnoliReflected
		} else {
			b >>= 1
		}
	}
	return p
}

// x2n[k] is x^(2^k) modulo the polynomial.
var x2n = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	t[0] = p
	for k := 1; k < len(t); k++ {
		p = mulModP(p, p)
		t[k] = p
	}
	return t
}()

// shiftOp returns x^(8n) modulo the polynomial: multiplying a CRC by it
// shifts the CRC past n zero bytes.
func shiftOp(n int64) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = mulModP(x2n[k&31], p)
		}
	}
	return p
}

// A CRCCombiner combines CRC32-C values of adjacent byte ranges. It
// caches the shift operator of the last length it combined: a spill
// partition's blocks share one length but for the last, and computing
// the operator afresh for every block costs more than the checksum pass
// it saves. The zero value is ready. Not safe for concurrent use.
type CRCCombiner struct {
	n  int64
	op uint32 // shiftOp(n); 0 until the first combine (no shift is 0)
}

// combine returns the CRC32-C of a‖b, given crcA = CRC32-C(a),
// crcB = CRC32-C(b) and lenB = len(b).
func (c *CRCCombiner) combine(crcA, crcB uint32, lenB int) uint32 {
	if c.op == 0 || c.n != int64(lenB) {
		c.n, c.op = int64(lenB), shiftOp(int64(lenB))
	}
	return mulModP(c.op, crcA) ^ crcB
}

// FoldBlock returns the CRC32-C of prev‖blk, where crc is CRC32-C(prev)
// and blk is one complete framed block as AppendBlock wrote it. Only the
// 16 header bytes are read: the payload's CRC comes from the header.
func (c *CRCCombiner) FoldBlock(crc uint32, blk []byte) uint32 {
	crc = crc32.Update(crc, castagnoli, blk[:BlockHeaderSize])
	return c.combine(crc, binary.LittleEndian.Uint32(blk[10:14]), len(blk)-BlockHeaderSize)
}

// SumBlocks checksums a concatenation of framed blocks in one pass: it
// appends each block's payload CRC32-C to sums and returns the CRC32-C of
// all of b, combined from the header bytes and the payload CRCs. The
// payload CRCs are computed from the bytes, not read from the headers, so
// DecodeBlockSum can verify each block against them without reading its
// payload again. ok is false when b does not split into whole blocks (a
// header or payload runs past the end); crc is then meaningless and the
// caller should checksum b directly.
func (c *CRCCombiner) SumBlocks(b []byte, sums []uint32) (crc uint32, _ []uint32, ok bool) {
	for len(b) > 0 {
		if len(b) < BlockHeaderSize {
			return 0, sums, false
		}
		plen32 := binary.LittleEndian.Uint32(b[6:10])
		if int64(plen32) > int64(len(b)-BlockHeaderSize) {
			return 0, sums, false
		}
		plen := int(plen32)
		sum := ChecksumBlock(b[BlockHeaderSize : BlockHeaderSize+plen])
		crc = crc32.Update(crc, castagnoli, b[:BlockHeaderSize])
		crc = c.combine(crc, sum, plen)
		sums = append(sums, sum)
		b = b[BlockHeaderSize+plen:]
	}
	return crc, sums, true
}
