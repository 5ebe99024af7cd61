package trace

import (
	"bytes"
	"testing"
)

// chunkSizes exercises the boundary cases of every Source transform.
var chunkSizes = []int{1, 3, 7, 64}

// manyRecs builds a deterministic mixed trace of n records.
func manyRecs(n int) []Rec {
	recs := make([]Rec, n)
	for i := range recs {
		recs[i] = Rec{
			PC:    0x1000 + uint64(i)*4,
			Addr:  uint64(i) * 32,
			Op:    Op(i % NumOps()),
			Dst:   uint8(i % 32),
			Src1:  uint8((i + 1) % 32),
			Src2:  uint8((i + 2) % 32),
			Taken: i%3 == 0,
		}
	}
	return recs
}

// drain reads a source to exhaustion with the given chunk size.
func drain(t *testing.T, s Source, chunkSize int) []Rec {
	t.Helper()
	buf := make([]Rec, chunkSize)
	var out []Rec
	for i := 0; ; i++ {
		n, eof := s.ReadChunk(buf)
		out = append(out, buf[:n]...)
		if eof {
			return out
		}
		if n == 0 {
			t.Fatal("ReadChunk returned 0 records without eof")
		}
		if i > 1_000_000 {
			t.Fatal("source never reported eof")
		}
	}
}

func TestSliceSourceChunks(t *testing.T) {
	recs := manyRecs(100)
	for _, cs := range chunkSizes {
		got := drain(t, NewSliceSource(recs), cs)
		if len(got) != len(recs) {
			t.Fatalf("chunk=%d: %d records, want %d", cs, len(got), len(recs))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("chunk=%d: record %d differs", cs, i)
			}
		}
	}
}

func TestLimitSourceChunks(t *testing.T) {
	recs := manyRecs(100)
	for _, cs := range chunkSizes {
		for _, limit := range []uint64{0, 1, 37, 100, 500} {
			got := drain(t, &Limit{S: NewSliceSource(recs), N: limit}, cs)
			want := int(limit)
			if want > len(recs) {
				want = len(recs)
			}
			if len(got) != want {
				t.Fatalf("chunk=%d limit=%d: %d records, want %d", cs, limit, len(got), want)
			}
		}
	}
}

func TestMemOnlySourceChunks(t *testing.T) {
	recs := manyRecs(100)
	var want []Rec
	for _, r := range recs {
		if r.Op.IsMem() {
			want = append(want, r)
		}
	}
	for _, cs := range chunkSizes {
		got := drain(t, &MemOnly{S: NewSliceSource(recs)}, cs)
		if len(got) != len(want) {
			t.Fatalf("chunk=%d: %d records, want %d", cs, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk=%d: record %d differs", cs, i)
			}
		}
	}
}

// TestWriteChunkMatchesWrite pins the chunked encoder to the
// record-at-a-time encoder byte for byte.
func TestWriteChunkMatchesWrite(t *testing.T) {
	recs := manyRecs(257)
	var a, b bytes.Buffer
	wa := NewWriter(&a)
	for _, r := range recs {
		if err := wa.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := wa.Flush(); err != nil {
		t.Fatal(err)
	}
	wb := NewWriter(&b)
	if err := wb.WriteChunk(recs); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteChunk bytes differ from Write bytes")
	}
}

// TestReaderReadChunkMatchesNext pins the batched decoder to the
// records written, at every chunk size.
func TestReaderReadChunkMatchesNext(t *testing.T) {
	recs := manyRecs(100)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteChunk(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for _, cs := range chunkSizes {
		r := NewReader(bytes.NewReader(raw))
		got := drain(t, r, cs)
		if r.Err() != nil {
			t.Fatalf("chunk=%d: %v", cs, r.Err())
		}
		if len(got) != len(recs) {
			t.Fatalf("chunk=%d: %d records, want %d", cs, len(got), len(recs))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("chunk=%d: record %d differs", cs, i)
			}
		}
	}
}

// TestReaderReadChunkTruncation pins the truncation semantics: a partial
// trailing record is an error, a record boundary is clean EOF.
func TestReaderReadChunkTruncation(t *testing.T) {
	recs := manyRecs(5)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteChunk(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Clean EOF on a record boundary.
	r := NewReader(bytes.NewReader(raw))
	got := drain(t, r, 64)
	if len(got) != 5 || r.Err() != nil {
		t.Fatalf("clean read: %d records, err %v", len(got), r.Err())
	}

	// Truncated mid-record: error, with the 3 whole records delivered.
	r = NewReader(bytes.NewReader(raw[:8+3*20+11]))
	got = drain(t, r, 64)
	if len(got) != 3 {
		t.Fatalf("truncated read delivered %d records, want 3", len(got))
	}
	if r.Err() == nil {
		t.Error("truncated read reported no error")
	}

	// Corrupt op byte inside a batch: positioned error, prefix delivered.
	bad := append([]byte(nil), raw...)
	bad[8+2*20+16] = 0x7F
	r = NewReader(bytes.NewReader(bad))
	got = drain(t, r, 64)
	if len(got) != 2 {
		t.Fatalf("corrupt read delivered %d records, want 2", len(got))
	}
	if r.Err() == nil {
		t.Error("corrupt read reported no error")
	}
}
