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
	var din bytes.Buffer
	if err := WriteDin(&din, manyRecs(1000)); err != nil { // past the 4 KiB sniff
		f.Fatal(err)
	}
	for _, b := range [][]byte{
		din.Bytes(), []byte(nativeBinary), // the retired native binary format
		[]byte("0x10 load 0x20 1 2 0 0\n"),                     // the retired native text format
		[]byte(nativeMagic + strings.Repeat(nativeRecord, 64)), // a 1288-byte first "line"
		append(din.Bytes(), "9 1\n"...),                        // bad label after the sniff window
		[]byte(strings.Repeat("# pad\n", 1000) + "0 zz\n"),     // bad address after it
		{}, []byte("\n"), []byte("garbage\n"), []byte(nativeMagic), {0x1f}, {0x1f, 0x8b},
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
