package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func sampleRecs() []Rec {
	return []Rec{
		{PC: 0x1000, Op: OpIntALU, Dst: 3, Src1: 1, Src2: 2},
		{PC: 0x1004, Op: OpLoad, Addr: 0xdead00, Dst: 4, Src1: 3},
		{PC: 0x1008, Op: OpBranch, Taken: true},
		{PC: 0x100c, Op: OpStore, Addr: 0xbeef00, Src1: 4},
		{PC: 0x1010, Op: OpFPDiv, Dst: 7, Src1: 5, Src2: 6},
	}
}

// next reads one record through a one-record ReadChunk.
func next(s Source) (Rec, bool) {
	var b [1]Rec
	n, _ := s.ReadChunk(b[:])
	return b[0], n == 1
}

func TestOpProperties(t *testing.T) {
	if !OpLoad.IsMem() || !OpStore.IsMem() || OpIntALU.IsMem() {
		t.Error("IsMem wrong")
	}
	if !OpFPALU.IsFP() || !OpFPSqrt.IsFP() || OpLoad.IsFP() || OpIntMul.IsFP() {
		t.Error("IsFP wrong")
	}
	if OpBranch.String() != "branch" || OpIntALU.String() != "ialu" {
		t.Error("String wrong")
	}
	if !OpBranch.Valid() || Op(200).Valid() {
		t.Error("Valid wrong")
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Error("unknown op String should include number")
	}
}

func TestRecString(t *testing.T) {
	recs := sampleRecs()
	if !strings.Contains(recs[1].String(), "load") {
		t.Error("load String wrong")
	}
	if !strings.Contains(recs[2].String(), "taken=true") {
		t.Error("branch String wrong")
	}
	if !strings.Contains(recs[0].String(), "ialu") {
		t.Error("alu String wrong")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := sampleRecs()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	got := Collect(r, 0)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(pc, addr uint64, op uint8, dst, s1, s2 uint8, taken bool) bool {
		rec := Rec{PC: pc, Addr: addr, Op: Op(op % uint8(numOps)), Dst: dst, Src1: s1, Src2: s2, Taken: taken}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(rec); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(&buf)
		got, ok := next(r)
		return ok && got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyTraceHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8 {
		t.Fatalf("empty trace is %d bytes, want 8 (magic)", buf.Len())
	}
	r := NewReader(&buf)
	if _, ok := next(r); ok {
		t.Error("empty trace yielded a record")
	}
	if r.Err() != nil {
		t.Errorf("clean EOF should not set Err: %v", r.Err())
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("NOTATRACE"))
	if _, ok := next(r); ok {
		t.Error("bad magic yielded a record")
	}
	if r.Err() != ErrBadMagic {
		t.Errorf("Err = %v, want ErrBadMagic", r.Err())
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(sampleRecs()[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	r := NewReader(bytes.NewReader(trunc))
	if _, ok := next(r); ok {
		t.Error("truncated record decoded")
	}
	if r.Err() == nil {
		t.Error("truncation should set Err")
	}
}

func TestSliceStreamAndLimit(t *testing.T) {
	recs := sampleRecs()
	s := &Limit{S: NewSliceSource(recs), N: 2}
	got := Collect(s, 0)
	if len(got) != 2 {
		t.Errorf("Limit yielded %d", len(got))
	}
	// Collect with max.
	got = Collect(NewSliceSource(recs), 3)
	if len(got) != 3 {
		t.Errorf("Collect max yielded %d", len(got))
	}
}

func TestMemOnly(t *testing.T) {
	m := &MemOnly{S: NewSliceSource(sampleRecs())}
	got := Collect(m, 0)
	if len(got) != 2 {
		t.Fatalf("MemOnly yielded %d records", len(got))
	}
	for _, r := range got {
		if !r.Op.IsMem() {
			t.Errorf("non-mem record %v passed filter", r)
		}
	}
}

func TestReaderRejectsCorruptOpByte(t *testing.T) {
	// A record whose op byte (after masking the taken bit) names no
	// defined class must surface as a positioned decode error, not flow
	// into the simulator as an out-of-range Op.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Rec{PC: 1, Op: OpLoad, Addr: 0x40}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Rec{PC: 2, Op: OpBranch, Taken: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt record 1's op byte: 8-byte magic + one 20-byte record, op
	// at offset 16.  0x7F keeps the taken bit clear and is far outside
	// the defined classes.
	raw[8+20+16] = 0x7F
	r := NewReader(bytes.NewReader(raw))
	if _, ok := next(r); !ok {
		t.Fatalf("record 0 should decode: %v", r.Err())
	}
	if _, ok := next(r); ok {
		t.Fatal("corrupt record decoded successfully")
	}
	err := r.Err()
	if err == nil {
		t.Fatal("corrupt record produced no error")
	}
	for _, want := range []string{"record 1", "invalid op"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	// A high bit plus invalid class must also be rejected (0xFF masks to
	// 0x7F with taken set).
	raw[8+20+16] = 0xFF
	r = NewReader(bytes.NewReader(raw))
	next(r)
	if _, ok := next(r); ok || r.Err() == nil {
		t.Error("taken-flagged corrupt op decoded successfully")
	}
}

func TestReaderTruncatedRecordPositioned(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Rec{Op: OpLoad, Addr: 0x40}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	r := NewReader(bytes.NewReader(raw[:len(raw)-3])) // cut mid-record
	if _, ok := next(r); ok {
		t.Fatal("truncated record decoded successfully")
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "record 0 truncated") {
		t.Errorf("error %v lacks truncation position", err)
	}
}
