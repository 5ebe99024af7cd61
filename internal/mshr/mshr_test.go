package mshr

import "testing"

func TestPrimaryAndSecondaryMiss(t *testing.T) {
	f := NewFile(8)
	if _, ok := f.Lookup(10, 100); ok {
		t.Fatal("Lookup on an empty file succeeded")
	}
	f.Add(100, 30)
	// A secondary miss on the same block finds the entry and keeps the
	// original completion time.
	if done, ok := f.Lookup(12, 100); !ok || done != 30 {
		t.Fatalf("secondary miss: done=%d ok=%v", done, ok)
	}
}

func TestCapacityAndStall(t *testing.T) {
	f := NewFile(2)
	f.Add(1, 20)
	f.Add(2, 25)
	if !f.Full(0) {
		t.Fatal("file with two entries of two is not full")
	}
	f.NoteFullStall()
	if f.FullStalls != 1 {
		t.Errorf("FullStalls = %d", f.FullStalls)
	}
	// The file stays full until its earliest entry retires, at cycle 20.
	if !f.Full(19) {
		t.Fatal("file has room at cycle 19, before any entry retired")
	}
	// After entry 1 retires at cycle 20 there is room again.
	if f.Full(20) {
		t.Fatal("file still full after retirement")
	}
	f.Add(3, 40)
	defer func() {
		if recover() == nil {
			t.Error("Add on a full file did not panic")
		}
	}()
	f.Add(4, 45)
}

func TestRetirement(t *testing.T) {
	f := NewFile(2)
	f.Add(1, 10)
	f.Add(2, 15)
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
	if f.Full(100) {
		t.Fatal("file full at cycle 100, after both entries retired")
	}
	f.Add(3, 120)
	f.Add(4, 120)
	if !f.Full(100) {
		t.Error("two fresh misses did not fill the file")
	}
}

func TestLookup(t *testing.T) {
	f := NewFile(4)
	f.Add(7, 12)
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
}

func TestPaperConfiguration(t *testing.T) {
	// 8 MSHRs: 8 outstanding misses to distinct lines fit, and the file
	// is then full until one retires.
	f := NewFile(8)
	for i := uint64(0); i < 8; i++ {
		if f.Full(0) {
			t.Fatalf("file full after %d misses", i)
		}
		f.Add(i, 20+i)
	}
	if !f.Full(0) {
		t.Error("8 distinct misses left room for a 9th")
	}
	if f.Full(20) {
		t.Error("file still full after the first miss completed")
	}
}
