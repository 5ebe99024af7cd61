package mshr

import "testing"

func TestPrimaryAndSecondaryMiss(t *testing.T) {
	f := NewFile(8)
	done, ok := f.Request(10, 100, 30)
	if !ok || done != 30 {
		t.Fatalf("primary miss: done=%d ok=%v", done, ok)
	}
	// Secondary miss on the same block merges and keeps the original
	// completion time.
	done, ok = f.Request(12, 100, 32)
	if !ok || done != 30 {
		t.Fatalf("secondary miss: done=%d ok=%v", done, ok)
	}
	if f.Allocations != 1 || f.Merges != 1 {
		t.Errorf("stats: %+v", *f)
	}
}

func TestCapacityAndStall(t *testing.T) {
	f := NewFile(2)
	f.Request(0, 1, 20)
	f.Request(0, 2, 25)
	if _, ok := f.Request(0, 3, 30); ok {
		t.Fatal("third distinct miss should be rejected")
	}
	if f.FullStalls != 1 {
		t.Errorf("FullStalls = %d", f.FullStalls)
	}
	// The file stays full until its earliest entry retires, at cycle 20.
	if _, ok := f.Request(19, 3, 40); ok || !f.Full(19) {
		t.Fatal("request accepted at cycle 19, before any entry retired")
	}
	if f.FullStalls != 2 {
		t.Errorf("FullStalls = %d, want 2", f.FullStalls)
	}
	// After entry 1 retires at cycle 20 there is room again.
	if _, ok := f.Request(20, 3, 40); !ok {
		t.Fatal("request after retirement rejected")
	}
}

func TestRetirement(t *testing.T) {
	f := NewFile(2)
	f.Request(0, 1, 10)
	f.Request(0, 2, 15)
	if _, ok := f.Lookup(9, 1); !ok || !f.Full(9) {
		t.Error("entry completing at 10 retired at cycle 9")
	}
	// An entry retires at its completion cycle, not one cycle later.
	if _, ok := f.Lookup(10, 1); ok || f.Full(10) {
		t.Error("entry completing at 10 still in flight at cycle 10")
	}
	if c, ok := f.Lookup(10, 2); !ok || c != 15 {
		t.Errorf("Lookup(10, 2) = %d, %v; want 15, true", c, ok)
	}
	// Once both have retired the file is empty: two fresh primary misses
	// fill it exactly.
	for _, b := range []uint64{3, 4} {
		if _, ok := f.Request(100, b, 120); !ok {
			t.Fatalf("miss on block %d rejected at cycle 100", b)
		}
	}
	if !f.Full(100) || f.Allocations != 4 || f.Merges != 0 {
		t.Errorf("after refilling: full=%v stats=%+v", f.Full(100), *f)
	}
}

func TestLookup(t *testing.T) {
	f := NewFile(4)
	f.Request(0, 7, 12)
	if c, ok := f.Lookup(3, 7); !ok || c != 12 {
		t.Errorf("Lookup = %d, %v", c, ok)
	}
	if _, ok := f.Lookup(3, 8); ok {
		t.Error("Lookup of absent block succeeded")
	}
	if _, ok := f.Lookup(12, 7); ok {
		t.Error("Lookup after completion should miss")
	}
}

func TestFilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewFile(0)
}

func TestBusSerialization(t *testing.T) {
	var b Bus
	if done := b.Acquire(0, 4); done != 4 {
		t.Errorf("first transfer done at %d, want 4", done)
	}
	// Second transfer at cycle 1 queues behind the first.
	if done := b.Acquire(1, 4); done != 8 {
		t.Errorf("queued transfer done at %d, want 8", done)
	}
	if b.BusyWait != 3 {
		t.Errorf("BusyWait = %d, want 3", b.BusyWait)
	}
	// A transfer after the bus drains starts immediately.
	if done := b.Acquire(20, 4); done != 24 {
		t.Errorf("idle-bus transfer done at %d, want 24", done)
	}
	// A one-cycle word transfer queues behind the line and holds the bus
	// for its own occupancy only.
	if done := b.Acquire(22, 1); done != 25 {
		t.Errorf("word transfer done at %d, want 25", done)
	}
	if b.BusyWait != 5 {
		t.Errorf("BusyWait = %d, want 5", b.BusyWait)
	}
	if b.Transactions != 4 {
		t.Errorf("Transactions = %d", b.Transactions)
	}
}

func TestPaperConfiguration(t *testing.T) {
	// 8 MSHRs, 4-cycle line occupancy: 8 outstanding misses to distinct
	// lines are accepted, the 9th stalls.
	f := NewFile(8)
	for i := uint64(0); i < 8; i++ {
		if _, ok := f.Request(0, i, 20+i); !ok {
			t.Fatalf("miss %d rejected", i)
		}
	}
	if _, ok := f.Request(0, 99, 40); ok {
		t.Error("9th distinct miss accepted")
	}
}
