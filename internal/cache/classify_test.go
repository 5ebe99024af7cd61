package cache

import (
	"testing"

	"repro/internal/index"
)

func TestClassifierKinds(t *testing.T) {
	cl := NewClassifier(2)
	// observe feeds one access and checks the breakdown it leaves.
	observe := func(block uint64, missed bool, want MissBreakdown) {
		t.Helper()
		cl.Observe(block, missed)
		if got := cl.Breakdown(); got != want {
			t.Errorf("after block %d (missed %v): breakdown %+v, want %+v", block, missed, got, want)
		}
	}
	// First touch: compulsory.
	observe(1, true, MissBreakdown{Compulsory: 1})
	// Hit: not classified.
	observe(1, false, MissBreakdown{Compulsory: 1})
	observe(2, true, MissBreakdown{Compulsory: 2})
	// Compulsory, and evicts 1 from the 2-entry shadow.
	observe(3, true, MissBreakdown{Compulsory: 3})
	// Block 1 re-missed: gone from a 2-block FA cache too => capacity.
	observe(1, true, MissBreakdown{Compulsory: 3, Capacity: 1})
	// Block 3 is still in the shadow (recently used): a miss on it is a
	// conflict miss.
	observe(3, true, MissBreakdown{Compulsory: 3, Capacity: 1, Conflict: 1})
	b := cl.Breakdown()
	if b.Compulsory != 3 || b.Capacity != 1 || b.Conflict != 1 || b.Total() != 5 {
		t.Errorf("breakdown = %+v", b)
	}
}

func TestClassifierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewClassifier(0)
}

func TestConflictMissesVanishUnderIPoly(t *testing.T) {
	// Drive the same pathological stream through modulo and I-Poly caches
	// of identical capacity: the conflict-miss count should collapse.
	run := func(p index.Placement) MissBreakdown {
		c := New(paperL1(p))
		cl := NewClassifier(c.Config().Size / c.Config().BlockSize)
		for round := 0; round < 20; round++ {
			for i := uint64(0); i < 8; i++ {
				b := c.Block(i * 8192)
				res := c.AccessBlock(b, false)
				cl.Observe(b, !res.Hit)
			}
		}
		return cl.Breakdown()
	}
	conv := run(index.NewModulo(7))
	ipoly := run(index.NewIPolyDefault(2, 7, 14))
	if conv.Conflict == 0 {
		t.Fatal("modulo placement produced no conflict misses on a pathological stream")
	}
	if ipoly.Conflict*10 > conv.Conflict {
		t.Errorf("I-Poly conflicts (%d) not <= 10%% of modulo conflicts (%d)",
			ipoly.Conflict, conv.Conflict)
	}
	// Compulsory misses must be identical — they are placement-independent.
	if conv.Compulsory != ipoly.Compulsory {
		t.Errorf("compulsory counts differ: %d vs %d", conv.Compulsory, ipoly.Compulsory)
	}
}

func TestLRUSetExactness(t *testing.T) {
	l := newLRUSet(3)
	for _, b := range []uint64{1, 2, 3} {
		if l.access(b) {
			t.Errorf("cold access of %d hit", b)
		}
	}
	l.access(1)      // 1 MRU; order now 1,3,2
	if l.access(4) { // evicts 2
		t.Error("4 hit")
	}
	if l.access(2) {
		t.Error("2 should have been evicted")
	}
	// Now 2 MRU, order 2,4,1; 3 evicted by the miss on 2.
	if l.access(3) {
		t.Error("3 should have been evicted")
	}
	if !l.access(2) || !l.access(4) {
		t.Error("2 and 4 should be resident")
	}
}
