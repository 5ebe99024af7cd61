package trace

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// readBin decodes data as a binary trace through Reader.ReadChunk at
// the given chunk size, failing the test on any invalid op.
func readBin(t *testing.T, data []byte, chunk int) ([]Rec, error) {
	t.Helper()
	got, err := readAll(NewReader(bytes.NewReader(data)), chunk)
	for i, rec := range got {
		if !rec.Op.Valid() {
			t.Fatalf("chunk %d: record %d has invalid op %d", chunk, i, rec.Op)
		}
	}
	return got, err
}

// sameAsOneRecordReads requires chunk sizes 5 and 7 to decode data to
// the records and error of one-record reads, and returns those.
func sameAsOneRecordReads(t *testing.T, data []byte) ([]Rec, error) {
	t.Helper()
	want, wantErr := readBin(t, data, 1)
	for _, chunk := range []int{5, 7} {
		got, err := readBin(t, data, chunk)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("chunk %d: error %v, one-record reads %v", chunk, err, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("chunk %d: %d records, one-record reads %d; records differ", chunk, len(got), len(want))
		}
	}
	return want, wantErr
}

// FuzzCodecRoundTrip drives arbitrary records through the binary writer
// and reader and requires a lossless round trip, read one record at a
// time and in chunks of 5 and 7.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x40), uint8(0), uint8(1), uint8(2), uint8(3), true, uint8(4))
	f.Add(uint64(0), uint64(0), uint8(9), uint8(31), uint8(0), uint8(0), false, uint8(1))
	f.Add(^uint64(0), ^uint64(0), uint8(7), uint8(255), uint8(255), uint8(255), true, uint8(64))
	f.Fuzz(func(t *testing.T, pc, addr uint64, op, dst, src1, src2 uint8, taken bool, count uint8) {
		n := int(count%64) + 1
		recs := make([]Rec, n)
		for i := range recs {
			recs[i] = Rec{
				PC:    pc + uint64(i),
				Addr:  addr ^ uint64(i)<<5,
				Op:    Op((int(op) + i) % NumOps()),
				Dst:   dst,
				Src1:  src1,
				Src2:  src2,
				Taken: taken != (i%2 == 0),
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteChunk(recs); err != nil {
			t.Fatalf("WriteChunk: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		got, err := sameAsOneRecordReads(t, buf.Bytes())
		if err != nil {
			t.Fatalf("read error: %v", err)
		}
		if !slices.Equal(got, recs) {
			t.Fatalf("round trip decoded %d records, wrote %d; records differ", len(got), n)
		}
	})
}

// FuzzReaderCorrupt feeds arbitrary bytes to the binary reader: it must
// never panic or emit an invalid op, and chunked reads must agree with
// one-record reads on the decoded prefix and the error.
func FuzzReaderCorrupt(f *testing.F) {
	// A valid two-record trace as a seed, plus degenerate cases.
	var seedBuf bytes.Buffer
	w := NewWriter(&seedBuf)
	_ = w.Write(Rec{PC: 1, Op: OpLoad, Addr: 0x40})
	_ = w.Write(Rec{PC: 2, Op: OpBranch, Taken: true})
	_ = w.Flush()
	f.Add(seedBuf.Bytes())
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add(append(append([]byte{}, magic[:]...), 0xFF, 0xFF, 0xFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, _ := sameAsOneRecordReads(t, data)
		// Sanity: every whole valid record the input could hold is bounded
		// by the payload size.
		if len(data) >= 8 {
			if maxRecs := (len(data) - 8) / recSize; len(got) > maxRecs {
				t.Fatalf("decoded %d records from %d payload bytes", len(got), len(data)-8)
			}
		}
	})
}

// FuzzDin runs arbitrary bytes through DinReader, at chunk sizes 1, 7
// and 8192, and through dinOracle, the strings-based reader it
// replaced: the records, how many arrive before an error, and the
// error text must all agree.
func FuzzDin(f *testing.F) {
	for _, s := range []string{
		"0 1000\n1 0x2000\n2 4000\n# comment\n\n0 ff8 extra fields ignored\n",
		"0 1000\r\n1 2000\r\n\r\n2 3000\r\n", // CRLF endings
		"\r\r0 1\r", "0 1\r\r\n1 2\n",        // stray CRs
		"# header\n\n   \n\t# indented\n0 1\n#\n", // comments, blank lines
		"0 1000", // no final newline
		"0 0x0X1f\n", "0 0X0x1f\n", "0 0x\n", "0 0x0x1\n", "0 0X\n",
		"1 0000000000000000000000000000deadbeef\n", // 17+ digits, leading zeros
		"0 0ffffffffffffffff\n", "0 ffffffffffffffff\n",
		"0 10000000000000000\n", // overflow
		"0 +1\n", "0 -1\n", "0 1_0\n", "0 0b1\n", "0 g\n",
		"3 1000\n", "0\n", "   0   \n", "00 1\n", "0x0 1\n", "#0 1\n",
		"0\u00a01000\n", "1\u00851000\u00a0\n", "\u00a00 1\u0085\n", // U+00A0, U+0085
		"\u30000\u20281\u3000\n", "0\u200b1\n", // other Unicode spaces; U+200B is not one
		"0 1\xff\n", "\xff 1\n", "0 \xc2\n", "0\xc2 1\n", "0 1\xc2\xc2\xa0\n", // invalid UTF-8
		"0 1\xe2\x80\xa8x\n", "2 1\xe2\x80\n",
	} {
		f.Add([]byte(s))
	}
	// Lines at and just past the scanner's 1 MiB limit.
	fits := append([]byte("0 "), bytes.Repeat([]byte{'0'}, 1<<20-4)...)
	f.Add(append(fits, "1\n"...))
	f.Add(append([]byte("0 1\n1 2\n"), bytes.Repeat([]byte{' '}, 1<<20+1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		oracle := newDinOracle(bytes.NewReader(data))
		var want []Rec
		for {
			r, ok := oracle.Next()
			if !ok {
				break
			}
			want = append(want, r)
		}
		for _, chunk := range []int{1, 7, 8192} {
			got, err := readAll(NewDinReader(bytes.NewReader(data)), chunk)
			if fmt.Sprint(err) != fmt.Sprint(oracle.err) {
				t.Fatalf("chunk %d: error %v, oracle %v", chunk, err, oracle.err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("chunk %d: %d records, oracle %d; records differ", chunk, len(got), len(want))
			}
		}
	})
}

// FuzzOpenFile opens arbitrary bytes as a trace file three ways: as
// they are, gzip-wrapped, and gzip-wrapped then cut short.  Nothing may
// panic; the gzip-wrapped file must decode to the raw file's records
// and fail exactly when it fails; and a cut gzip stream must never read
// as a clean EOF.
func FuzzOpenFile(f *testing.F) {
	var din, bin bytes.Buffer
	if err := WriteDin(&din, manyRecs(1000)); err != nil { // past the 4 KiB sniff
		f.Fatal(err)
	}
	if err := writeBin(&bin, manyRecs(300)); err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{
		din.Bytes(), bin.Bytes(),
		[]byte("0x10 load 0x20 1 2 0 0\n"),                 // the retired native text format
		bin.Bytes()[:bin.Len()-3],                          // partial last record
		append(din.Bytes(), "9 1\n"...),                    // bad label after the sniff window
		[]byte(strings.Repeat("# pad\n", 1000) + "0 zz\n"), // bad address after it
		{}, []byte("\n"), []byte("garbage\n"), magic[:], {0x1f}, {0x1f, 0x8b},
	} {
		f.Add(b, uint16(0))
		f.Add(b, uint16(len(b)/3))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		dir := t.TempDir()
		read := func(name string, b []byte) ([]Rec, error) {
			p := filepath.Join(dir, name)
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			tf, err := OpenFile(p)
			if err != nil {
				return nil, err
			}
			defer tf.Close()
			return readAll(tf, 4096)
		}
		var zb bytes.Buffer
		zw := gzip.NewWriter(&zb)
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		z := zb.Bytes()

		raw, rawErr := read("raw", data)
		unz, unzErr := read("raw.gz", z)
		// Raw bytes that open with the gzip magic are sniffed as gzip
		// themselves, so only the other inputs must agree.
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			if (rawErr == nil) != (unzErr == nil) {
				t.Fatalf("raw error %v, gzip-wrapped error %v", rawErr, unzErr)
			}
			if !slices.Equal(raw, unz) {
				t.Fatalf("raw decodes to %d records, gzip-wrapped to %d; records differ", len(raw), len(unz))
			}
		}
		// Keep the two magic bytes, so the cut file is still gzip.
		c := 2 + int(cut)%(len(z)-2)
		if _, err := read("cut.gz", z[:c]); err == nil {
			t.Fatalf("gzip stream cut to %d of %d bytes read as a clean EOF", c, len(z))
		}
	})
}

// TestFuzzSeedsPass runs the seed corpus logic once so the fuzz targets
// are exercised by a plain `go test` run too.
func TestFuzzSeedsPass(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteChunk(manyRecs(10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flip every byte position of one record and require no panic.
	for off := 8; off < 8+recSize; off++ {
		data := append([]byte(nil), buf.Bytes()...)
		data[off] ^= 0xFF
		r := NewReader(bytes.NewReader(data))
		for {
			if _, ok := next(r); !ok {
				break
			}
		}
	}
	// Truncate at every length and require no panic on the chunked path.
	full := buf.Bytes()
	for l := 0; l <= len(full); l++ {
		r := NewReader(bytes.NewReader(full[:l]))
		tmp := make([]Rec, 4)
		for {
			if _, eof := r.ReadChunk(tmp); eof {
				break
			}
		}
	}
}
