package cache

import (
	"testing"

	"repro/internal/gf2"
)

func newCA(t *testing.T) *ColumnAssociative {
	t.Helper()
	p := gf2.Irreducibles(8, 1)[0] // 256 lines -> 8 index bits
	return NewColumnAssociative(8<<10, 32, p, 19)
}

func TestColumnAssocBasic(t *testing.T) {
	c := newCA(t)
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("cold hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("re-access missed")
	}
	if c.FirstProbeHits != 1 {
		t.Errorf("FirstProbeHits = %d", c.FirstProbeHits)
	}
}

// aliasPair returns two byte addresses whose blocks share a conventional
// index but have distinct, non-degenerate rehash indices.
func aliasPair(t *testing.T, c *ColumnAssociative) (uint64, uint64) {
	t.Helper()
	for base := uint64(256); base < 4096; base++ {
		a, b := base, base+256
		if c.rehash(a) != c.conventional(a) &&
			c.rehash(b) != c.conventional(b) &&
			c.rehash(a) != c.rehash(b) &&
			c.conventional(a) == c.conventional(b) {
			return a * 32, b * 32
		}
	}
	t.Fatal("no usable alias pair found")
	return 0, 0
}

func TestColumnAssocSecondProbeAndSwap(t *testing.T) {
	c := newCA(t)
	A, B := aliasPair(t, c)
	c.Access(A, false)
	c.Access(B, false) // miss; A demoted to its alternative location
	// A should now hit on the SECOND probe and be swapped back.
	r := c.Access(A, false)
	if !r.Hit {
		t.Fatal("A lost entirely; demotion to alternative location failed")
	}
	if c.SecondProbeHits != 1 {
		t.Errorf("SecondProbeHits = %d", c.SecondProbeHits)
	}
	// After the swap, A is back at its conventional slot: first-probe hit.
	first := c.FirstProbeHits
	c.Access(A, false)
	if c.FirstProbeHits != first+1 {
		t.Error("swap did not promote A to its conventional location")
	}
}

func TestColumnAssocPingPongCoResidence(t *testing.T) {
	// The whole point: two conventional aliases co-reside, giving
	// pseudo-associativity in a direct-mapped structure.
	c := newCA(t)
	A, B := aliasPair(t, c)
	c.Access(A, false)
	c.Access(B, false)
	misses := c.Stats().Misses
	for i := 0; i < 20; i++ {
		c.Access(A, false)
		c.Access(B, false)
	}
	if got := c.Stats().Misses; got != misses {
		t.Errorf("aliasing pair still missing: %d extra misses", got-misses)
	}
}

func TestHashRehashNoSwap(t *testing.T) {
	c := newCA(t)
	c.Swap = false
	A, B := uint64(0), uint64(256*32)
	c.Access(A, false)
	c.Access(B, false) // fill at conventional slot, evicting A outright
	if c.Access(A, false).Hit {
		t.Error("without swap, the demotion path should not preserve A")
	}
}

func TestColumnAssocFirstProbeRateHigh(t *testing.T) {
	// Mostly-sequential stream with occasional conflicts: first-probe hit
	// rate should be high (paper reports ~90 %).
	c := newCA(t)
	for round := 0; round < 50; round++ {
		for i := uint64(0); i < 200; i++ {
			c.Access(i*32, false)
		}
		// A couple of conflicting interlopers.
		c.Access(256*32, false)
		c.Access(512*32, false)
	}
	if rate := c.FirstProbeHitRate(); rate < 0.85 {
		t.Errorf("first-probe hit rate = %.3f, want >= 0.85", rate)
	}
	if avg := c.AvgProbesPerAccess(); avg < 1 || avg > 2 {
		t.Errorf("avg probes = %v", avg)
	}
}

func TestColumnAssocGeometryPanics(t *testing.T) {
	p8 := gf2.Irreducibles(8, 1)[0]
	cases := []func(){
		func() { NewColumnAssociative(0, 32, p8, 19) },
		func() { NewColumnAssociative(8<<10, 33, p8, 19) },
		func() { NewColumnAssociative(8<<10, 32, gf2.Irreducibles(7, 1)[0], 19) }, // wrong degree
		func() { NewColumnAssociative(8<<10, 32, p8, 8) },                         // vbits too small
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestColumnAssocStatsZeroSafe(t *testing.T) {
	c := newCA(t)
	if c.FirstProbeHitRate() != 0 || c.AvgProbesPerAccess() != 0 {
		t.Error("zero-access rates should be 0")
	}
}
