package trace

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// bigDinText is a din trace longer than twice the gunzip ring, built
// once per test binary.
var bigDinText = sync.OnceValue(func() []byte {
	rng := rand.New(rand.NewSource(1))
	var din []byte
	for len(din) < 2*gunzipBlocks*gunzipBlockSize {
		din = append(din, "01"[rng.Intn(2)], ' ')
		din = strconv.AppendUint(din, rng.Uint64()>>rng.Intn(64), 16)
		din = append(din, '\n')
	}
	return din
})

// bigDin is bigDinText gzipped.  It decompresses to more blocks than
// the ring holds, so the stage cannot finish while a test reads its
// first few blocks.
var bigDin = sync.OnceValue(func() []byte {
	var z bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&z, gzip.BestSpeed)
	zw.Write(bigDinText())
	zw.Close()
	return z.Bytes()
})

// inlineGunzip decodes a gzipped din trace with decompression inline,
// as the sniffer reads: the reference the goroutine stage must match.
func inlineGunzip(t *testing.T, z []byte) ([]Rec, error) {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatal(err)
	}
	return readAll(NewDinReader(&gunzip{gz: gz}), 8192)
}

// stages counts the goroutines running a gunzip stage.
func stages() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("trace.(*gunzip).run("))
}

// waitGoroutines waits until no gunzip stage runs and no more than base
// goroutines exist.  A goroutine whose exit Close has seen still runs
// until it returns from its final deferred call, so the check yields
// until then.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for stages() > 0 || runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines (%d gunzip stages) after Close, want at most %d", runtime.NumGoroutine(), stages(), base)
		}
		runtime.Gosched()
	}
}

// TestGunzipStageLifecycle pins the gunzip goroutine to its File: an
// open for Info alone starts none, and after Close — before any read,
// mid-stream, after a full drain, or after a truncated, checksum or
// deflate error — none is left.  Each drain also delivers exactly what
// inline decompression delivers, error included.
func TestGunzipStageLifecycle(t *testing.T) {
	whole := bigDin()
	badCRC := slices.Clone(whole)
	badCRC[len(badCRC)-8] ^= 0xff
	// A flush ends a deflate block on a byte boundary; the next block
	// header (final, type 3) names the reserved block type.
	var badBlock bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&badBlock, gzip.BestSpeed)
	zw.Write(bigDinText()[:3*gunzipBlockSize])
	zw.Flush()
	badBlock.Write([]byte{0x07, 0, 0, 0})
	cases := []struct {
		name    string
		z       []byte
		read    int    // records read before Close; -1 drains
		wantErr string // in the drained error; "" for a clean drain
	}{
		{"close before any read", whole, 0, ""},
		{"close mid-stream", whole, 50_000, ""},
		{"full drain", whole, -1, ""},
		{"truncated stream", whole[:len(whole)/2], -1, errTruncatedGzip.Error()},
		{"corrupt CRC", badCRC, -1, gzip.ErrChecksum.Error()},
		{"corrupt deflate block", badBlock.Bytes(), -1, "flate: corrupt input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTemp(t, "t.din.gz", tc.z)
			base := runtime.NumGoroutine()
			f, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if f.Info.String() != "din+gzip" {
				t.Fatalf("sniffed %v", f.Info)
			}
			if n := stages(); n != 0 || f.gz.done != nil {
				t.Fatalf("open started %d gunzip stage(s)", n)
			}
			switch {
			case tc.read > 0:
				buf := make([]Rec, tc.read)
				if k, _ := f.ReadChunk(buf); k != tc.read {
					t.Fatalf("read %d records, want %d (err %v)", k, tc.read, f.Err())
				}
				if n := stages(); n != 1 {
					t.Fatalf("%d gunzip stages mid-stream, want 1", n)
				}
				// Let the stage fill the ring, so that Close has to stop a
				// goroutine waiting for a free block.
				deadline := time.Now().Add(5 * time.Second)
				for len(f.gz.full) < gunzipBlocks-1 {
					if time.Now().After(deadline) {
						t.Fatalf("ring holds %d blocks, want %d", len(f.gz.full), gunzipBlocks-1)
					}
					runtime.Gosched()
				}
			case tc.read < 0:
				got, err := readAll(f, 7)
				want, wantErr := inlineGunzip(t, tc.z)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil) != (tc.wantErr == "") ||
					err != nil && !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want %q (inline: %v)", err, tc.wantErr, wantErr)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%d records, inline decompression delivers %d; records differ", len(got), len(want))
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
		})
	}
}
