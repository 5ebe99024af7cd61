package trace

import "testing"

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
