package cache

import "testing"

func dmConfig(size int) Config {
	return Config{Size: size, BlockSize: 32, Ways: 1, WriteAllocate: true}
}

func TestVictimCacheRecoversConflicts(t *testing.T) {
	// Two blocks that alias in a direct-mapped cache ping-pong without a
	// victim buffer but co-reside with one.
	v := NewVictimCache(dmConfig(1024), 4)
	A, B := uint64(0), uint64(1024)
	v.Access(A, false)
	v.Access(B, false) // evicts A into the buffer
	for i := 0; i < 10; i++ {
		v.Access(A, false)
		v.Access(B, false)
	}
	s := v.Stats()
	if s.Misses != 2 {
		t.Errorf("only the two cold misses expected, got %+v", s)
	}
	if v.VictimHits == 0 {
		t.Error("victim buffer never hit")
	}
}

func TestVictimCacheStatsPartition(t *testing.T) {
	v := NewVictimCache(dmConfig(1024), 4)
	v.Access(0, false)
	v.Access(0, true)
	v.Access(32, true)
	s := v.Stats()
	if s.Accesses != 3 || s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.ReadMisses != 1 || s.WriteMiss != 1 || s.WriteHits != 1 || s.ReadHits != 0 {
		t.Errorf("breakdown = %+v", s)
	}
}

func TestVictimBufferCapacityBound(t *testing.T) {
	// With a 1-entry buffer, a 3-way ping-pong still misses.
	v := NewVictimCache(dmConfig(1024), 1)
	addrs := []uint64{0, 1024, 2048}
	for i := 0; i < 5; i++ {
		for _, a := range addrs {
			v.Access(a, false)
		}
	}
	s := v.Stats()
	if s.Misses < 10 {
		t.Errorf("1-entry buffer cannot absorb a 3-way conflict: %+v", s)
	}
}

func TestVictimCachePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewVictimCache(dmConfig(1024), 0)
}

func TestVictimMainStatsExposed(t *testing.T) {
	v := NewVictimCache(dmConfig(1024), 4)
	v.Access(0, false)
	if v.MainStats().Accesses == 0 {
		t.Error("main stats not recorded")
	}
}

func TestVictimDemotionCarriesDirty(t *testing.T) {
	// Write-back main: a dirty line demoted into the buffer must keep its
	// dirty bit, and its eventual displacement from the buffer must be
	// accounted as a writeback (the lost-writeback bug).
	cfg := dmConfig(1024)
	cfg.WriteBack = true
	v := NewVictimCache(cfg, 2)
	A := uint64(0)
	v.Access(A, true)     // dirty fill of A in main
	v.Access(1024, false) // aliases A: A demoted to the buffer, still dirty
	if v.Demotions != 1 {
		t.Fatalf("Demotions = %d, want 1", v.Demotions)
	}
	if dirty, ok := probeDirty(v.victim, v.main.Block(A)); !ok || !dirty {
		t.Fatalf("demoted line lost its dirty bit (present=%v dirty=%v)", ok, dirty)
	}
	// Push two more clean demotions through the same set to displace A
	// from the 2-entry buffer: its writeback must be recorded.
	v.Access(2048, false)
	v.Access(3072, false)
	if wb := v.VictimStats().Writebacks; wb != 1 {
		t.Errorf("buffer writebacks = %d, want 1 (dirty demoted line displaced)", wb)
	}
}

func TestVictimSwapPreservesDirtyOnPromotion(t *testing.T) {
	// A dirty line recovered from the buffer (swap) must re-enter the
	// main cache dirty, so its next main-cache eviction writes back.
	cfg := dmConfig(1024)
	cfg.WriteBack = true
	v := NewVictimCache(cfg, 4)
	A, B := uint64(0), uint64(1024)
	v.Access(A, true)  // A dirty in main
	v.Access(B, false) // A demoted (dirty) into the buffer
	v.Access(A, false) // buffer hit: swap promotes A back into main
	if dirty, ok := probeDirty(v.main, v.main.Block(A)); !ok || !dirty {
		t.Fatalf("promoted line lost its dirty bit (present=%v dirty=%v)", ok, dirty)
	}
	wbBefore := v.MainStats().Writebacks
	v.Access(B, false) // swap back: A demoted again, evicted dirty from main
	if wb := v.MainStats().Writebacks; wb != wbBefore+1 {
		t.Errorf("main writebacks = %d, want %d (dirty promoted line displaced)", wb, wbBefore+1)
	}
}

func TestVictimDemotionsDoNotPolluteBufferStats(t *testing.T) {
	// Demotions are internal traffic: the buffer's demand access counters
	// must stay clean while the organization-level stats are unchanged.
	v := NewVictimCache(dmConfig(1024), 4)
	v.Access(0, false)
	v.Access(1024, false) // demotes block 0
	v.Access(2048, false) // demotes block 32
	if v.Demotions != 2 {
		t.Fatalf("Demotions = %d, want 2", v.Demotions)
	}
	if got := v.VictimStats().Accesses; got != 0 {
		t.Errorf("buffer demand accesses = %d, want 0 (demotions are internal)", got)
	}
	if s := v.Stats(); s.Accesses != 3 || s.Misses != 3 {
		t.Errorf("organization stats disturbed: %+v", s)
	}
}
