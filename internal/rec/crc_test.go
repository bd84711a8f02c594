package rec

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"
)

// withPortableCodec runs f with the per-field codec forced, as on a
// big-endian host.
func withPortableCodec(t testing.TB, f func()) {
	t.Helper()
	saved := memmoveCodec
	memmoveCodec = false
	defer func() { memmoveCodec = saved }()
	f()
}

// TestCRCCombineMatchesDirect checks combine against crc32.Checksum of the
// concatenation: random splits, zero-length parts on either side, and the
// shuffler's block lengths (a full default block, a 1-record block, a
// header), through one combiner so its cached operator is reused and
// replaced.
func TestCRCCombineMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := make([]byte, 3*(4096*RecordSize+BlockHeaderSize))
	r.Read(data)
	lens := []int{0, 1, 7, BlockHeaderSize, RecordSize + BlockHeaderSize, 4096*RecordSize + BlockHeaderSize, 4096 * RecordSize}
	for range 40 {
		lens = append(lens, r.Intn(len(data)/2))
	}
	var c CRCCombiner
	for _, la := range lens {
		for _, lb := range lens {
			if la+lb > len(data) {
				continue
			}
			a, b := data[:la], data[la:la+lb]
			got := c.combine(ChecksumBlock(a), ChecksumBlock(b), lb)
			if want := crc32.Checksum(data[:la+lb], crc32.MakeTable(crc32.Castagnoli)); got != want {
				t.Fatalf("combine over %d+%d bytes = %08x, want %08x", la, lb, got, want)
			}
		}
	}
	// Many parts folded in sequence, equal lengths with a short tail: the
	// shape of a partition file.
	var crc uint32
	off := 0
	for _, n := range []int{4096 * RecordSize, 4096 * RecordSize, 0, 4096 * RecordSize, 40} {
		crc = c.combine(crc, ChecksumBlock(data[off:off+n]), n)
		off += n
	}
	if want := ChecksumBlock(data[:off]); crc != want {
		t.Fatalf("sequential combine = %08x, want %08x", crc, want)
	}
}

// TestSumBlocksMatchesDirect checks FoldBlock (the writer's view) and
// SumBlocks (the reader's) against a direct checksum of a partition-like
// concatenation of raw and compressed blocks, and that DecodeBlockSum
// with SumBlocks' payload CRCs decodes what DecodeBlock does.
func TestSumBlocksMatchesDirect(t *testing.T) {
	var enc BlockEncoder
	var file []byte
	var want []Record
	var c CRCCombiner
	var folded uint32
	for b, n := range []int{4096, 4096, 0, 4096, 1, 4096, 77} {
		recs := blockRecords(n, 50, int64(b))
		want = append(want, recs...)
		start := len(file)
		var err error
		if file, err = enc.AppendBlock(file, recs, b%3 == 2); err != nil {
			t.Fatal(err)
		}
		folded = c.FoldBlock(folded, file[start:])
	}
	direct := ChecksumBlock(file)
	if folded != direct {
		t.Fatalf("FoldBlock = %08x, direct = %08x", folded, direct)
	}
	var rc CRCCombiner
	crc, sums, ok := rc.SumBlocks(file, nil)
	if !ok || crc != direct || len(sums) != 7 {
		t.Fatalf("SumBlocks = %08x, %d sums, ok %v; want %08x, 7 sums", crc, len(sums), ok, direct)
	}
	var dec BlockDecoder
	var got []Record
	for i, off := 0, 0; off < len(file); i++ {
		var n int
		var err error
		if got, n, err = dec.DecodeBlockSum(got, file[off:], sums[i]); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		off += n
	}
	if !slices.Equal(got, want) {
		t.Fatal("DecodeBlockSum did not return the encoded records")
	}
	// A payload CRC that disagrees with the header is caught as before.
	if _, _, err := dec.DecodeBlockSum(nil, file, sums[0]^1); err == nil {
		t.Fatal("DecodeBlockSum accepted a payload CRC the header disagrees with")
	}
	// Truncated files do not split into whole blocks.
	for _, cut := range []int{1, BlockHeaderSize - 1, BlockHeaderSize + 5} {
		if _, _, ok := rc.SumBlocks(file[:len(file)-cut], nil); ok {
			t.Errorf("SumBlocks accepted a file cut by %d bytes", cut)
		}
	}
	if crc, sums, ok := rc.SumBlocks(nil, nil); !ok || crc != 0 || len(sums) != 0 {
		t.Errorf("SumBlocks(empty) = %08x, %d sums, ok %v", crc, len(sums), ok)
	}
}

// TestCodecPortableParity checks that the memmove codec and the portable
// per-field loop produce identical wire bytes and identical records.
func TestCodecPortableParity(t *testing.T) {
	if !memmoveCodec {
		t.Log("big-endian host: only the portable codec runs")
	}
	recs := codecRecords(5000)
	prefix := []byte("hdr")
	fastWire := AppendRecords(append([]byte(nil), prefix...), recs)
	fastDec, err := DecodeRecords([]Record{{Key: 9}}, fastWire[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	var slowWire []byte
	var slowDec []Record
	withPortableCodec(t, func() {
		slowWire = AppendRecords(append([]byte(nil), prefix...), recs)
		slowDec, err = DecodeRecords([]Record{{Key: 9}}, fastWire[len(prefix):])
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fastWire, slowWire) {
		t.Fatal("memmove and portable AppendRecords differ")
	}
	if !slices.Equal(fastDec, slowDec) || !slices.Equal(fastDec[1:], recs) {
		t.Fatal("memmove and portable DecodeRecords differ")
	}
	// Blocks, raw and compressed, decode identically on both paths.
	var enc BlockEncoder
	var dec BlockDecoder
	for _, compress := range []bool{false, true} {
		blk, err := enc.AppendBlock(nil, blockRecords(3000, 40, 3), compress)
		if err != nil {
			t.Fatal(err)
		}
		var slowBlk []byte
		withPortableCodec(t, func() { slowBlk, err = enc.AppendBlock(nil, blockRecords(3000, 40, 3), compress) })
		if err != nil || !bytes.Equal(blk, slowBlk) {
			t.Fatalf("compress=%v: block bytes differ between codecs (err %v)", compress, err)
		}
		fast, _, err := dec.DecodeBlock(nil, blk)
		if err != nil {
			t.Fatal(err)
		}
		var slow []Record
		withPortableCodec(t, func() { slow, _, err = dec.DecodeBlock(nil, blk) })
		if err != nil || !slices.Equal(fast, slow) {
			t.Fatalf("compress=%v: decoded records differ between codecs (err %v)", compress, err)
		}
	}
}

// BenchmarkCodec measures one 64 KiB block's encode and decode on the
// memmove and portable codecs.
func BenchmarkCodec(b *testing.B) {
	recs := codecRecords(4096)
	wire := AppendRecords(nil, recs)
	out := make([]Record, 0, len(recs))
	for _, portable := range []bool{false, true} {
		name := "memmove"
		if portable {
			name = "portable"
		}
		run := func(b *testing.B, f func()) {
			if portable {
				withPortableCodec(b, f)
			} else {
				f()
			}
		}
		b.Run(name+"/append", func(b *testing.B) {
			b.SetBytes(int64(len(wire)))
			buf := make([]byte, 0, len(wire))
			run(b, func() {
				for range b.N {
					buf = AppendRecords(buf[:0], recs)
				}
			})
		})
		b.Run(name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(wire)))
			run(b, func() {
				for range b.N {
					out, _ = DecodeRecords(out[:0], wire)
				}
			})
		})
	}
}

// BenchmarkPartitionChecksum compares verifying and decoding a 2 MiB
// partition of 64 KiB raw blocks with the file checksummed directly and
// every block re-checksummed (direct) against one SumBlocks pass whose
// payload CRCs the decoder reuses (combined).
func BenchmarkPartitionChecksum(b *testing.B) {
	var enc BlockEncoder
	var file []byte
	for i := range 32 {
		var err error
		if file, err = enc.AppendBlock(file, blockRecords(4096, 1<<20, int64(i)), false); err != nil {
			b.Fatal(err)
		}
	}
	recs := make([]Record, 0, 32*4096)
	var dec BlockDecoder
	b.Run("direct", func(b *testing.B) {
		b.SetBytes(int64(len(file)))
		for range b.N {
			_ = ChecksumBlock(file)
			recs = recs[:0]
			for off := 0; off < len(file); {
				var n int
				recs, n, _ = dec.DecodeBlock(recs, file[off:])
				off += n
			}
		}
	})
	b.Run("combined", func(b *testing.B) {
		b.SetBytes(int64(len(file)))
		var c CRCCombiner
		var sums []uint32
		for range b.N {
			_, sums, _ = c.SumBlocks(file, sums[:0])
			recs = recs[:0]
			for i, off := 0, 0; off < len(file); i++ {
				var n int
				recs, n, _ = dec.DecodeBlockSum(recs, file[off:], sums[i])
				off += n
			}
		}
	})
}
