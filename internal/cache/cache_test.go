package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/index"
)

// paperL1 returns the paper's baseline L1 geometry: 8 KB, 2-way, 32 B
// lines, write-through non-allocating.
func paperL1(p index.Placement) Config {
	return Config{
		Size: 8 << 10, BlockSize: 32, Ways: 2,
		Placement: p, WriteAllocate: false, WriteBack: false,
	}
}

func TestGeometry(t *testing.T) {
	c := New(paperL1(nil))
	if c.sets != 128 {
		t.Errorf("sets = %d, want 128", c.sets)
	}
	if c.Config().SetBits() != 7 {
		t.Errorf("SetBits = %d", c.Config().SetBits())
	}
	if c.Block(0x1234) != 0x1234>>5 {
		t.Errorf("Block conversion wrong")
	}
}

func TestGeometryPanics(t *testing.T) {
	bad := []Config{
		{Size: 0, BlockSize: 32, Ways: 2},
		{Size: 8192, BlockSize: 33, Ways: 2}, // non-pow2 block
		{Size: 8192, BlockSize: 32, Ways: 3}, // blocks % ways != 0... 256/3
		{Size: 8000, BlockSize: 32, Ways: 2}, // size % block != 0
		{Size: 96, BlockSize: 32, Ways: 1},   // 3 sets, non-pow2
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPlacementSetMismatchPanics(t *testing.T) {
	cfg := paperL1(index.NewModulo(6)) // 64 sets vs implied 128
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(cfg)
}

func TestBasicHitMiss(t *testing.T) {
	c := New(paperL1(nil))
	r := c.Access(0x1000, false)
	if r.Hit {
		t.Error("cold access hit")
	}
	r = c.Access(0x1000, false)
	if !r.Hit {
		t.Error("second access missed")
	}
	// Same block, different offset.
	if r = c.Access(0x101F, false); !r.Hit {
		t.Error("same-block access missed")
	}
	// Next block misses.
	if r = c.Access(0x1020, false); r.Hit {
		t.Error("adjacent block hit")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 2-way: A, B fill the set; touching A then accessing C must evict B.
	c := New(paperL1(nil))
	A := uint64(0x0000)
	B := A + 8192  // same set (stride = cache way size)
	C := A + 16384 // same set
	c.Access(A, false)
	c.Access(B, false)
	c.Access(A, false) // A most recent
	r := c.Access(C, false)
	if !r.EvictedValid || r.Evicted != c.Block(B) {
		t.Errorf("expected B evicted, got %+v", r)
	}
	if !c.Access(A, false).Hit {
		t.Error("A should have survived")
	}
	if c.Access(B, false).Hit {
		t.Error("B should have been evicted")
	}
}

func TestFIFOIgnoresTouches(t *testing.T) {
	cfg := paperL1(nil)
	cfg.Replacement = FIFO
	c := New(cfg)
	A, B, C := uint64(0), uint64(8192), uint64(16384)
	c.Access(A, false)
	c.Access(B, false)
	c.Access(A, false) // touch A: FIFO must not care
	r := c.Access(C, false)
	if !r.EvictedValid || r.Evicted != c.Block(A) {
		t.Errorf("FIFO should evict A (oldest insert), got %+v", r)
	}
}

func TestRandomReplacementStaysInSet(t *testing.T) {
	cfg := paperL1(nil)
	cfg.Replacement = Random
	c := New(cfg)
	A, B, C := uint64(0), uint64(8192), uint64(16384)
	c.Access(A, false)
	c.Access(B, false)
	r := c.Access(C, false)
	if !r.EvictedValid {
		t.Fatal("full set must evict")
	}
	if r.Evicted != c.Block(A) && r.Evicted != c.Block(B) {
		t.Errorf("random evicted a non-candidate: %+v", r)
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := New(paperL1(nil))
	r := c.Access(0x40, true) // store miss
	if r.Hit || r.Filled {
		t.Errorf("WT/NWA store miss must not fill: %+v", r)
	}
	if c.Access(0x40, false).Hit {
		t.Error("block should not have been allocated")
	}
	s := c.Stats()
	if s.WriteMiss != 1 {
		t.Errorf("stats = %+v", s)
	}
	// Store hit after a load fill.
	c.Access(0x40, false)
	if !c.Access(0x40, true).Hit {
		t.Error("store after fill should hit")
	}
	if c.Stats().Writebacks != 0 {
		t.Error("write-through cache must not write back")
	}
}

func TestWriteBackAllocate(t *testing.T) {
	cfg := Config{Size: 64, BlockSize: 32, Ways: 1, WriteBack: true, WriteAllocate: true}
	c := New(cfg)       // 2 sets, direct-mapped
	c.Access(0, true)   // dirty fill set 0
	c.Access(64, false) // clean fill set 0? 64>>5=2, set 0. evicts dirty block 0
	s := c.Stats()
	if s.Writebacks != 1 {
		t.Errorf("expected 1 writeback, stats = %+v", s)
	}
}

func TestOnEvictHook(t *testing.T) {
	cfg := Config{Size: 32, BlockSize: 32, Ways: 1, WriteAllocate: true}
	c := New(cfg) // one line
	var evicted []uint64
	c.OnEvict = func(b uint64, dirty bool) { evicted = append(evicted, b) }
	c.Access(0, false)
	c.Access(32, false)
	c.Access(64, false)
	if len(evicted) != 2 || evicted[0] != 0 || evicted[1] != 1 {
		t.Errorf("evicted = %v", evicted)
	}
}

func TestInvalidateAndProbe(t *testing.T) {
	c := New(paperL1(nil))
	c.Access(0x100, false)
	b := c.Block(0x100)
	if !c.Probe(b) {
		t.Error("Probe missed resident block")
	}
	if !c.Invalidate(b) {
		t.Error("Invalidate missed resident block")
	}
	if c.Probe(b) {
		t.Error("block still present after Invalidate")
	}
	if c.Invalidate(b) {
		t.Error("double Invalidate succeeded")
	}
	if c.Stats().Invalidates != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

func TestFlushAndOccupancy(t *testing.T) {
	c := New(paperL1(nil))
	for i := uint64(0); i < 100; i++ {
		c.Access(i*32, false)
	}
	if got := len(c.Contents()); got != 100 {
		t.Errorf("Contents len = %d", got)
	}
	c.Flush()
	if got := len(c.Contents()); got != 0 {
		t.Errorf("Flush left %d lines valid", got)
	}
}

func TestBlockResidesAtMostOnce(t *testing.T) {
	// Property: after any access sequence, each block appears at most
	// once in the cache — even under skewed placement where each way uses
	// a different index.
	place := index.NewIPolyDefault(2, 7, 14)
	c := New(paperL1(place))
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			c.Access(uint64(a)*32, false)
		}
		seen := make(map[uint64]bool)
		for _, b := range c.Contents() {
			if seen[b] {
				return false
			}
			seen[b] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHitAfterFillProperty(t *testing.T) {
	// Property: immediately re-accessing any loaded address hits.
	for _, scheme := range index.AllSchemes() {
		place := index.MustNew(scheme, 7, 2, 14)
		c := New(paperL1(place))
		f := func(a uint32) bool {
			c.Access(uint64(a), false)
			return c.Access(uint64(a), false).Hit
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("scheme %s: %v", scheme, err)
		}
	}
}

func TestConflictStrideThrashesModuloButNotIPoly(t *testing.T) {
	// The headline behaviour: a 2-way cache walked repeatedly over 4
	// blocks separated by the way size (8 KB /2 = 4 KB... use 8 KB so all
	// map to set 0 under modulo) thrashes conventionally but not under
	// skewed I-Poly.
	walk := func(c *Cache) float64 {
		const rounds = 50
		for r := 0; r < rounds; r++ {
			for i := uint64(0); i < 4; i++ {
				c.Access(i*8192, false)
			}
		}
		return c.Stats().MissRatio()
	}
	conv := New(paperL1(nil))
	if mr := walk(conv); mr < 0.99 {
		t.Errorf("modulo should thrash (4 blocks, 1 set, 2 ways): miss ratio %v", mr)
	}
	ipoly := New(paperL1(index.NewIPolyDefault(2, 7, 14)))
	if mr := walk(ipoly); mr > 0.10 {
		t.Errorf("I-Poly should spread the blocks: miss ratio %v", mr)
	}
}

func TestFullyAssociative(t *testing.T) {
	cfg := Config{Size: 4 * 32, BlockSize: 32, Ways: 4, Placement: index.Single{}, WriteAllocate: true}
	c := New(cfg)
	// 4 blocks fit regardless of address.
	addrs := []uint64{0, 8192, 16384, 999424}
	for _, a := range addrs {
		c.Access(a, false)
	}
	for _, a := range addrs {
		if !c.Access(a, false).Hit {
			t.Errorf("FA cache should hold all 4 blocks (addr %#x)", a)
		}
	}
	// Fifth block evicts LRU (addrs[0]).
	c.Access(32, false)
	if c.Access(addrs[0], false).Hit {
		t.Error("LRU block should have been evicted")
	}
}

func TestStatsRatios(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 || s.ReadMissRatio() != 0 {
		t.Error("empty stats ratios should be 0")
	}
	s = Stats{Accesses: 10, Misses: 3, ReadHits: 6, ReadMisses: 2}
	if s.MissRatio() != 0.3 {
		t.Errorf("MissRatio = %v", s.MissRatio())
	}
	if s.ReadMissRatio() != 0.25 {
		t.Errorf("ReadMissRatio = %v", s.ReadMissRatio())
	}
}

func TestResetStats(t *testing.T) {
	c := New(paperL1(nil))
	c.Access(0, false)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("ResetStats did not clear")
	}
	if !c.Access(0, false).Hit {
		t.Error("ResetStats must not clear contents")
	}
}

func TestReplPolicyString(t *testing.T) {
	for p, want := range map[ReplPolicy]string{LRU: "lru", FIFO: "fifo", Random: "random"} {
		if p.String() != want {
			t.Errorf("String(%d) = %q", int(p), p.String())
		}
	}
}

// probeDirty reports whether block is present in c and, if so, whether
// its line is dirty.  Like Probe it changes no line.
func probeDirty(c *Cache, block uint64) (dirty, ok bool) {
	w, s, ok := c.lookup(block)
	return ok && c.lines[int(s)*c.ways+w].dirty, ok
}

func TestInsertBlockSemantics(t *testing.T) {
	cfg := Config{Size: 2 * 32, BlockSize: 32, Ways: 2, WriteBack: true, WriteAllocate: true}
	c := New(cfg) // single set, 2 ways
	c.InsertBlock(1, true)
	if s := c.Stats(); s.Accesses != 0 || s.Fills != 1 {
		t.Fatalf("InsertBlock stats = %+v, want fill without demand access", s)
	}
	if dirty, ok := probeDirty(c, 1); !ok || !dirty {
		t.Fatal("inserted line not present dirty")
	}
	// Inserting a present block merges dirtiness and touches recency.
	c.InsertBlock(2, false)
	c.InsertBlock(1, false)
	if dirty, _ := probeDirty(c, 1); !dirty {
		t.Error("re-insert cleared the dirty bit")
	}
	// Displacing the dirty line accounts a writeback.
	c.InsertBlock(2, false) // touch 2... block 1 is LRU? 1 touched after 2
	c.InsertBlock(3, false) // evicts LRU
	if wb := c.Stats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
}
