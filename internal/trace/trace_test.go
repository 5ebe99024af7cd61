package trace

import (
	"strings"
	"testing"
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
