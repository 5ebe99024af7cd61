package trace

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBin encodes records in the native binary format in one call.
func writeBin(w *bytes.Buffer, recs []Rec) error {
	tw := NewWriter(w)
	if err := tw.WriteChunk(recs); err != nil {
		return err
	}
	return tw.Flush()
}

// collectAll drains an ErrSource and returns the records plus the
// deferred error.
func collectAll(t *testing.T, s ErrSource) ([]Rec, error) {
	t.Helper()
	return readAll(s, 7) // deliberately odd chunk size
}

// readAll drains an ErrSource in chunks of the given size and returns
// the records plus the deferred error.
func readAll(s ErrSource, chunk int) ([]Rec, error) {
	var out []Rec
	buf := make([]Rec, chunk)
	for {
		k, eof := s.ReadChunk(buf)
		out = append(out, buf[:k]...)
		if eof {
			break
		}
	}
	return out, s.Err()
}

func TestDinReaderBasics(t *testing.T) {
	in := "0 1000\n1 0x2000\n2 4000\n# comment\n\n0 ff8 extra fields ignored\n"
	dr := NewDinReader(strings.NewReader(in))
	recs, err := collectAll(t, dr)
	if err != nil {
		t.Fatalf("Err() = %v", err)
	}
	want := []Rec{
		{Op: OpLoad, Addr: 0x1000},
		{Op: OpStore, Addr: 0x2000},
		{Op: OpIntALU, PC: 0x4000},
		{Op: OpLoad, Addr: 0xff8},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Errorf("rec %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
	// The ifetch must disappear under the memory filter.
	dr = NewDinReader(strings.NewReader(in))
	mem, _ := collectAll(t, &memErrSource{MemOnly{S: dr}, dr})
	if len(mem) != 3 {
		t.Errorf("MemOnly kept %d records, want 3 (ifetch filtered)", len(mem))
	}
}

// memErrSource pairs MemOnly with the underlying reader's Err.
type memErrSource struct {
	MemOnly
	er interface{ Err() error }
}

func (m *memErrSource) Err() error { return m.er.Err() }

func TestDinReaderErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown label", "0 1000\n3 2000\n", "line 2: unknown label \"3\""},
		{"one field", "0\n", "line 1"},
		{"bad address", "0 zz\n", "not a hex number"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dr := NewDinReader(strings.NewReader(tc.in))
			_, err := collectAll(t, dr)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Err() = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestTextReaderRejectsUnprefixedDecimal(t *testing.T) {
	// "123" used to parse silently as 0x123; it must now be a
	// positioned error naming the ambiguity.
	in := "0x40 load 123 1 0 0 0\n"
	tr := NewTextReader(strings.NewReader(in))
	_, err := collectAll(t, tr)
	if err == nil {
		t.Fatal("unprefixed decimal address parsed without error")
	}
	for _, want := range []string{"line 1", "0x-prefixed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// writeTemp writes bytes to a temp file and returns the path.
func writeTemp(t *testing.T, name string, b []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func gzBytes(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// memRecs is a mem-only record set that survives every format.
func memRecs() []Rec {
	return []Rec{
		{Op: OpLoad, Addr: 0x1000},
		{Op: OpStore, Addr: 0x2020},
		{Op: OpLoad, Addr: 0xdeadbe8},
	}
}

func TestOpenFileSniffsEveryFormat(t *testing.T) {
	recs := memRecs()

	var bin bytes.Buffer
	if err := writeBin(&bin, recs); err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := WriteText(&txt, recs); err != nil {
		t.Fatal(err)
	}
	var din bytes.Buffer
	if err := WriteDin(&din, recs); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		bytes  []byte
		format Format
		gz     bool
	}{
		{"t.trace", bin.Bytes(), FormatBinary, false},
		{"t.trace.txt", txt.Bytes(), FormatText, false},
		{"t.din", din.Bytes(), FormatDin, false},
		{"t.trace.gz", gzBytes(t, bin.Bytes()), FormatBinary, true},
		{"t.din.gz", gzBytes(t, din.Bytes()), FormatDin, true},
		{"t.txt.gz", gzBytes(t, txt.Bytes()), FormatText, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := OpenFile(writeTemp(t, tc.name, tc.bytes))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if f.Info.Format != tc.format || f.Info.Gzip != tc.gz {
				t.Fatalf("sniffed %+v, want format %q gzip %v", f.Info, tc.format, tc.gz)
			}
			got, err := collectAll(t, f)
			if err != nil {
				t.Fatalf("Err() = %v", err)
			}
			if len(got) != len(recs) {
				t.Fatalf("decoded %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if got[i].Op != recs[i].Op || got[i].Addr != recs[i].Addr {
					t.Errorf("rec %d = %+v, want op/addr of %+v", i, got[i], recs[i])
				}
			}
		})
	}
}

func TestOpenFileTruncatedGzip(t *testing.T) {
	recs := memRecs()
	var bin bytes.Buffer
	if err := writeBin(&bin, recs); err != nil {
		t.Fatal(err)
	}
	whole := gzBytes(t, bin.Bytes())
	// Chop the gzip stream: whatever the cut lands on (checksum, deflate
	// block, even a record boundary inside), the reader must not report
	// a clean EOF.
	for _, cut := range []int{len(whole) - 1, len(whole) - 8, len(whole) / 2} {
		f, err := OpenFile(writeTemp(t, "trunc.trace.gz", whole[:cut]))
		if err != nil {
			// Truncation inside the gzip header is acceptable as an open
			// error.
			continue
		}
		_, rerr := collectAll(t, f)
		f.Close()
		if rerr == nil {
			t.Errorf("cut at %d/%d bytes: truncated gzip read back with no error", cut, len(whole))
		}
	}
}

func TestOpenFileCorruptBinary(t *testing.T) {
	recs := memRecs()
	var bin bytes.Buffer
	if err := writeBin(&bin, recs); err != nil {
		t.Fatal(err)
	}
	b := bin.Bytes()
	// A partial trailing record is corruption, not EOF.
	f, err := OpenFile(writeTemp(t, "cut.trace", b[:len(b)-3]))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, rerr := collectAll(t, f); rerr == nil {
		t.Error("trace with partial trailing record read back with no error")
	}
}

func TestTextBinaryRoundTrip(t *testing.T) {
	recs := []Rec{
		{PC: 0x40, Op: OpLoad, Addr: 0x1000, Dst: 3},
		{PC: 0x44, Op: OpBranch, Taken: true, Src1: 3},
		{PC: 0x48, Op: OpStore, Addr: 0x2000, Src1: 4},
		{PC: 0x4c, Op: OpFPMul, Dst: 5, Src1: 6, Src2: 7},
	}
	var txt bytes.Buffer
	if err := WriteText(&txt, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(bytes.NewReader(txt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := writeBin(&bin, back); err != nil {
		t.Fatal(err)
	}
	br := NewReader(bytes.NewReader(bin.Bytes()))
	again := Collect(br, 0)
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
	if len(again) != len(recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(again), len(recs))
	}
	for i := range recs {
		if again[i] != recs[i] {
			t.Errorf("rec %d: text->binary round trip %+v, want %+v", i, again[i], recs[i])
		}
	}
}

func TestHashFile(t *testing.T) {
	p := writeTemp(t, "h.bin", []byte("abc"))
	sum, size, err := HashFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if size != 3 {
		t.Errorf("size = %d, want 3", size)
	}
	// sha256("abc")
	if sum != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" {
		t.Errorf("sha256 = %s", sum)
	}
}
