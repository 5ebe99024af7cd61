package hierarchy

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/rng"
)

// testConfig builds the paper's reference hierarchy: 8 KB 2-way I-Poly L1
// (virtual) over a conventionally indexed L2 of the given size.
func testConfig(l2Size int) Config {
	return Config{
		L1: cache.Config{
			Size: 8 << 10, BlockSize: 32, Ways: 2,
			Placement:     index.NewIPolyDefault(2, 7, 19),
			WriteAllocate: false,
		},
		L2: cache.Config{
			Size: l2Size, BlockSize: 32, Ways: 2,
			WriteBack: true, WriteAllocate: true,
		},
	}
}

func TestBasicFlow(t *testing.T) {
	h := New(testConfig(256 << 10))
	h.Access(0x1000, false)
	s := h.Stats()
	if s.L1Misses != 1 || s.L2Misses != 1 {
		t.Fatalf("cold access stats = %+v", s)
	}
	h.Access(0x1000, false)
	if got := h.Stats().L1Hits; got != 1 {
		t.Errorf("L1Hits = %d", got)
	}
	// A different line in the same page: L1 miss, L2 miss.
	h.Access(0x1040, false)
	if got := h.Stats().L2Misses; got != 2 {
		t.Errorf("L2Misses = %d", got)
	}
}

func TestInclusionInvariantHolds(t *testing.T) {
	h := New(testConfig(32 << 10)) // small L2 to force replacements
	r := rng.New(1)
	for i := 0; i < 20000; i++ {
		addr := uint64(r.Intn(1 << 18))
		h.Access(addr, r.Bool(0.3))
		if i%2000 == 0 {
			if v := h.CheckInclusion(); v != 0 {
				t.Fatalf("inclusion violated at access %d: %d L1 lines missing from L2", i, v)
			}
		}
	}
	if v := h.CheckInclusion(); v != 0 {
		t.Fatalf("inclusion violated at end: %d violations", v)
	}
	if h.Stats().InclusionInvalidates == 0 {
		t.Error("workload never exercised inclusion invalidation")
	}
}

func TestHolesCreatedAndCounted(t *testing.T) {
	h := New(testConfig(32 << 10))
	r := rng.New(2)
	for i := 0; i < 50000; i++ {
		h.Access(uint64(r.Intn(1<<18)), false)
	}
	s := h.Stats()
	if s.Holes == 0 {
		t.Fatal("no holes created by a thrashing workload")
	}
	if s.Holes > s.L2Misses {
		t.Errorf("holes (%d) exceed L2 misses (%d)", s.Holes, s.L2Misses)
	}
	if s.HoleRate() <= 0 || s.HoleRate() > 1 {
		t.Errorf("HoleRate = %v", s.HoleRate())
	}
}

func TestModelPHPaperExample(t *testing.T) {
	// §3.3: 8 KB L1, 256 KB L2, 32 B lines, direct-mapped:
	// m1 = 8, m2 = 13 => P_H = (2^8 - 1)/2^13 = 0.0311...
	got := ModelPH(8, 13)
	if math.Abs(got-0.031) > 0.001 {
		t.Errorf("ModelPH(8,13) = %v, paper says 0.031", got)
	}
	if got != 255.0/8192 {
		t.Errorf("ModelPH(8,13) = %v, want exactly 255/8192", got)
	}
}

func TestHoleRateMatchesModelDirectMapped(t *testing.T) {
	// Direct-mapped I-Poly L1 and L2 with pseudo-random indices at both
	// levels: the measured hole rate should sit near the analytical P_H.
	// 8 KB / 256 KB with 32 B lines: m1 = 8, m2 = 13, P_H = 0.0311.
	// The paper notes the model is accurate for L2:L1 ratios >= 16 (here
	// the ratio is 32).
	cfg := Config{
		L1: cache.Config{
			Size: 8 << 10, BlockSize: 32, Ways: 1,
			Placement:     index.NewIPolyDefault(1, 8, 19),
			WriteAllocate: true,
		},
		L2: cache.Config{
			Size: 256 << 10, BlockSize: 32, Ways: 1,
			Placement: index.NewIPolyDefault(1, 13, 21),
			WriteBack: true, WriteAllocate: true,
		},
		ScrambleSeed: 99,
	}
	h := New(cfg)
	r := rng.New(4)
	// Random accesses across a 16 MB footprint: L2 misses constantly and
	// the L1 population is uncorrelated with L2 victims.
	for i := 0; i < 400000; i++ {
		h.Access(uint64(r.Intn(16<<20)), false)
	}
	s := h.Stats()
	if s.L2Misses < 10000 {
		t.Fatalf("workload too gentle: only %d L2 misses", s.L2Misses)
	}
	want := ModelPH(8, 13)
	got := s.HoleRate()
	if got < want*0.6 || got > want*1.4 {
		t.Errorf("hole rate = %.4f, model predicts %.4f (tolerance 40%%)", got, want)
	}
}

func TestWriteThroughStoresReachL2(t *testing.T) {
	h := New(testConfig(256 << 10))
	h.Access(0x3000, false) // load fill
	l2acc := h.L2.Stats().Accesses
	h.Access(0x3000, true) // store hit at L1, write-through to L2
	if h.L2.Stats().Accesses != l2acc+1 {
		t.Error("write-through store did not reach L2")
	}
}

func TestHoleMissAttribution(t *testing.T) {
	h := New(testConfig(32 << 10))
	r := rng.New(3)
	for i := 0; i < 50000; i++ {
		h.Access(uint64(r.Intn(1<<17)), false)
	}
	s := h.Stats()
	if s.Holes > 0 && s.HoleMisses == 0 {
		t.Error("holes were created but no hole miss was ever attributed")
	}
}

func TestConfigPanics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"block mismatch": {
			L1: cache.Config{Size: 8 << 10, BlockSize: 32, Ways: 2},
			L2: cache.Config{Size: 64 << 10, BlockSize: 64, Ways: 2},
		},
		"L2 smaller": {
			L1: cache.Config{Size: 64 << 10, BlockSize: 32, Ways: 2},
			L2: cache.Config{Size: 8 << 10, BlockSize: 32, Ways: 2},
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPageTable(t *testing.T) {
	pt := NewPageTable(12, 0)
	p1 := pt.Translate(0x1234)
	if p1&0xFFF != 0x234 {
		t.Errorf("page offset not preserved: %#x", p1)
	}
	if pt.Translate(0x1234) != p1 {
		t.Error("translation not stable")
	}
	p2 := pt.Translate(0x999999)
	if p2>>12 == p1>>12 {
		t.Error("distinct pages mapped to same frame")
	}
}

func TestPageTableScrambled(t *testing.T) {
	pt := NewPageTable(12, 77)
	seen := make(map[uint64]bool)
	for v := uint64(0); v < 100; v++ {
		p := pt.Translate(v<<12) >> 12
		if seen[p] {
			t.Fatalf("physical page %d assigned twice", p)
		}
		seen[p] = true
	}
}

func TestPageTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPageTable(2, 0)
}

func TestWritebackAccountingEndToEnd(t *testing.T) {
	// Write-back dirty accounting through the hierarchy: stores written
	// through a WT L1 dirty the WB L2; when the thrashing working set
	// forces L2 replacements, those dirty lines must be written back and
	// the matching L1 images invalidated for Inclusion — with the flat
	// residency index staying consistent throughout.
	h := New(testConfig(32 << 10))
	r := rng.New(9)
	for i := 0; i < 60000; i++ {
		h.Access(uint64(r.Intn(1<<18)), r.Bool(0.4))
	}
	l2 := h.L2.Stats()
	if l2.Writebacks == 0 {
		t.Error("no L2 writebacks despite write-back L2 and store traffic")
	}
	if l2.Writebacks > l2.Evictions {
		t.Errorf("writebacks (%d) exceed evictions (%d)", l2.Writebacks, l2.Evictions)
	}
	s := h.Stats()
	if s.InclusionInvalidates == 0 {
		t.Error("workload never exercised inclusion invalidation")
	}
	if v := h.CheckInclusion(); v != 0 {
		t.Fatalf("inclusion violated: %d L1 lines missing from L2", v)
	}
}

func TestResidencyIndexConsistency(t *testing.T) {
	// White-box audit of the flat per-L2-frame residency index: every
	// recorded alias must be L1-resident with its physical image in the
	// frame that records it, and every L1-resident line must be recorded.
	h := New(testConfig(32 << 10))
	r := rng.New(12)
	audit := func() {
		recorded := 0
		for f, alias := range h.resident {
			if alias == 0 {
				continue
			}
			recorded++
			vblock := alias - 1
			if !h.L1.Probe(vblock) {
				t.Fatalf("frame %d records alias %#x not resident in L1", f, vblock)
			}
			pblock := h.vblockToPhys(vblock)
			w, s, ok := h.L2.Locate(pblock)
			if !ok || h.frame(s, w) != f {
				t.Fatalf("frame %d records alias %#x whose physical image is elsewhere", f, vblock)
			}
		}
		if got := len(h.L1.Contents()); got != recorded {
			t.Fatalf("L1 holds %d lines but residency index records %d", got, recorded)
		}
	}
	for i := 0; i < 20000; i++ {
		h.Access(uint64(r.Intn(1<<18)), r.Bool(0.3))
		if i%2500 == 0 {
			audit()
		}
	}
	audit()
}
