package cache

import (
	"testing"

	"repro/internal/index"
	"repro/internal/trace"
)

func TestClassifierKinds(t *testing.T) {
	// A direct-mapped cache of two 32-byte blocks, which also sizes a
	// 2-block shadow: blocks 1 and 3 share set 1.
	c := New(Config{Size: 64, BlockSize: 32, Ways: 1})
	cl := NewClassifier(c)
	// observe feeds one load, checks that the cache hit or missed as
	// missed says, and checks the breakdown it leaves.
	observe := func(block uint64, missed bool, want MissBreakdown) {
		t.Helper()
		before := c.Stats().Misses
		cl.ClassifyStream([]trace.Rec{{Op: trace.OpLoad, Addr: block * 32}})
		if got := c.Stats().Misses != before; got != missed {
			t.Errorf("block %d: cache missed %v, want %v", block, got, missed)
		}
		if got := cl.Breakdown(0); got != want {
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
	b := cl.Breakdown(0)
	if b.Compulsory != 3 || b.Capacity != 1 || b.Conflict != 1 || b.Total() != 5 {
		t.Errorf("breakdown = %+v", b)
	}
}

func TestClassifierPanics(t *testing.T) {
	l1 := New(paperL1(nil))
	for i, caches := range [][]*Cache{
		nil,
		{l1, New(Config{Size: 4 << 10, BlockSize: 32, Ways: 2})},
		{l1, New(Config{Size: 8 << 10, BlockSize: 64, Ways: 2})},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewClassifier(caches...)
		}()
	}
}

func TestConflictMissesVanishUnderIPoly(t *testing.T) {
	// Drive the same pathological stream through modulo and I-Poly caches
	// of identical capacity: the conflict-miss count should collapse.
	cl := NewClassifier(New(paperL1(index.NewModulo(7))), New(paperL1(index.NewIPolyDefault(2, 7, 14))))
	var recs []trace.Rec
	for round := 0; round < 20; round++ {
		for i := uint64(0); i < 8; i++ {
			recs = append(recs, trace.Rec{Op: trace.OpLoad, Addr: i * 8192})
		}
	}
	cl.ClassifyStream(recs)
	conv, ipoly := cl.Breakdown(0), cl.Breakdown(1)
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

// TestLRUSetExactness pins the shadow's fully-associative LRU order.
func TestLRUSetExactness(t *testing.T) {
	cl := NewClassifier(New(Config{Size: 3 * 32, BlockSize: 32, Ways: 3})) // a 3-block shadow
	access := func(block uint64) bool {
		_, resident := cl.load(block)
		return resident
	}
	for _, b := range []uint64{1, 2, 3} {
		if access(b) {
			t.Errorf("cold access of %d hit", b)
		}
	}
	access(1)      // 1 MRU; order now 1,3,2
	if access(4) { // evicts 2
		t.Error("4 hit")
	}
	if access(2) {
		t.Error("2 should have been evicted")
	}
	// Now 2 MRU, order 2,4,1; 3 evicted by the miss on 2.
	if access(3) {
		t.Error("3 should have been evicted")
	}
	if !access(2) || !access(4) {
		t.Error("2 and 4 should be resident")
	}
}

// TestClassifyStreamAllocatesNothing pins the shadow's layout: a block
// evicted from the shadow keeps its node, so replaying blocks the
// shadow has seen allocates nothing, though the stream cycles through
// twice the blocks the shadow holds and every load misses it.
func TestClassifyStreamAllocatesNothing(t *testing.T) {
	cl := NewClassifier(New(paperL1(nil)))
	var recs []trace.Rec
	for b := uint64(0); b < 512; b++ {
		recs = append(recs, trace.Rec{Op: trace.OpLoad, Addr: b * 32}, trace.Rec{Op: trace.OpStore, Addr: b * 32})
	}
	cl.ClassifyStream(recs)
	if n := testing.AllocsPerRun(10, func() { cl.ClassifyStream(recs) }); n != 0 {
		t.Errorf("a replay of seen blocks allocated %v times, want 0", n)
	}
	// One cold replay, then AllocsPerRun's warm-up run and its ten.
	if got, want := cl.Breakdown(0), (MissBreakdown{Compulsory: 512, Capacity: 11 * 512}); got != want {
		t.Errorf("breakdown %+v, want %+v", got, want)
	}
}
