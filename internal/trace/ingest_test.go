package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// A trace in the retired native binary format: the 8-byte magic and one
// fixed 20-byte record (pc 0x1000, a load of 0x4000 into r1 from r2).
const (
	nativeMagic  = "IPOLYTR1"
	nativeRecord = "\x00\x10\x00\x00\x00\x00\x00\x00" + // pc
		"\x00\x40\x00\x00\x00\x00\x00\x00" + // addr
		"\x07\x01\x02\x00" // op (load), dst, src1, src2
	nativeBinary = nativeMagic + nativeRecord
)

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

// TestOpenFileSniffsEveryFormat opens din raw and gzipped, and checks
// that a file in either retired native format — binary ("IPOLYTR1" and
// 20-byte records) or text ("pc op addr dst src1 src2 taken" lines) —
// is rejected as unrecognized, raw and gzipped, with at most 64 bytes
// of its first line quoted.
func TestOpenFileSniffsEveryFormat(t *testing.T) {
	recs := memRecs()
	txt := []byte("0x0 load 0x1000 0 0 0 0\n0x0 store 0x2020 0 0 0 0\n0x0 load 0xdeadbe8 0 0 0 0\n")
	var din bytes.Buffer
	if err := WriteDin(&din, recs); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		bytes []byte
		info  string // what OpenFile sniffs; "" if it must reject the file
	}{
		{"t.trace", []byte(nativeBinary), ""},
		{"t.trace.txt", txt, ""},
		{"t.din", din.Bytes(), "din"},
		{"t.trace.gz", gzBytes(t, []byte(nativeBinary)), ""},
		{"t.din.gz", gzBytes(t, din.Bytes()), "din+gzip"},
		{"t.txt.gz", gzBytes(t, txt), ""},
		{"t.long.trace", []byte(nativeMagic + strings.Repeat(nativeRecord, 64)), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := OpenFile(writeTemp(t, tc.name, tc.bytes))
			if tc.info == "" {
				if err == nil {
					f.Close()
					t.Fatal("a native trace opened; want an unrecognized-format error")
				}
				if !errors.Is(err, ErrUnrecognized) || !strings.Contains(err.Error(), "unrecognized trace format") {
					t.Fatalf("error %q does not name the unrecognized format", err)
				}
				_, rest, _ := strings.Cut(err.Error(), "(line ")
				q, qerr := strconv.QuotedPrefix(rest)
				line, _ := strconv.Unquote(q)
				if qerr != nil || line == "" || len(line) > 64 {
					t.Fatalf("error %q quotes %d bytes of the line, want 1 to 64", err, len(line))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if f.Info.String() != tc.info {
				t.Fatalf("sniffed %v, want %s", f.Info, tc.info)
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
	var din bytes.Buffer
	if err := WriteDin(&din, memRecs()); err != nil {
		t.Fatal(err)
	}
	whole := gzBytes(t, din.Bytes())
	// Chop the gzip stream: whatever the cut lands on (checksum, deflate
	// block, even a record boundary inside), the reader must not report
	// a clean EOF.
	for _, cut := range []int{len(whole) - 1, len(whole) - 8, len(whole) / 2} {
		f, err := OpenFile(writeTemp(t, "trunc.din.gz", whole[:cut]))
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
