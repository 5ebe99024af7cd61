package workload

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/trace"
)

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 18 {
		t.Fatalf("suite has %d programs, want 18", len(suite))
	}
	names := make(map[string]bool)
	bad := 0
	fp := 0
	for _, p := range suite {
		if names[p.Name] {
			t.Errorf("duplicate program %q", p.Name)
		}
		names[p.Name] = true
		if p.Bad {
			bad++
			if !p.FP {
				t.Errorf("%s: bad programs in the paper are all FP", p.Name)
			}
		}
		if p.FP {
			fp++
		}
	}
	if bad != 3 {
		t.Errorf("%d bad programs, want 3 (tomcatv, swim, wave5)", bad)
	}
	if fp != 10 {
		t.Errorf("%d FP programs, want 10", fp)
	}
	for _, n := range BadPrograms() {
		p, ok := ByName(n)
		if !ok || !p.Bad {
			t.Errorf("BadPrograms entry %q missing or not marked bad", n)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName invented a program")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("gcc")
	a := trace.Collect(&trace.Limit{S: Source(p, 42), N: 5000}, 0)
	b := trace.Collect(&trace.Limit{S: Source(p, 42), N: 5000}, 0)
	if len(a) != 5000 || len(b) != 5000 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p, _ := ByName("compress")
	a := trace.Collect(&trace.Limit{S: Source(p, 1), N: 1000}, 0)
	b := trace.Collect(&trace.Limit{S: Source(p, 2), N: 1000}, 0)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestMixSanity(t *testing.T) {
	for _, p := range Suite() {
		m := SampleMix(p, 7, 20000)
		if m.Total != 20000 {
			t.Fatalf("%s: short stream", p.Name)
		}
		memFrac := float64(m.Loads+m.Stores) / float64(m.Total)
		if memFrac < 0.05 || memFrac > 0.7 {
			t.Errorf("%s: memory fraction %.2f implausible", p.Name, memFrac)
		}
		brFrac := float64(m.Branches) / float64(m.Total)
		if brFrac < 0.02 || brFrac > 0.4 {
			t.Errorf("%s: branch fraction %.2f implausible", p.Name, brFrac)
		}
		if p.FP && m.FP == 0 {
			t.Errorf("%s: FP program with no FP ops", p.Name)
		}
		if !p.FP && m.FP > 0 {
			t.Errorf("%s: int program emitted FP ops", p.Name)
		}
	}
}

func TestValidOpsAndPCs(t *testing.T) {
	for _, p := range Suite() {
		s := Source(p, 3)
		pcs := make(map[uint64]trace.Op)
		buf := make([]trace.Rec, 1)
		for i := 0; i < 5000; i++ {
			if k, _ := s.ReadChunk(buf); k != 1 {
				t.Fatalf("%s: stream ended", p.Name)
			}
			r := buf[0]
			if !r.Op.Valid() {
				t.Fatalf("%s: invalid op", p.Name)
			}
			if r.Op.IsMem() && r.Addr == 0 {
				t.Errorf("%s: memory op with zero address", p.Name)
			}
			// A PC must always carry the same op class (stable loop body).
			if prev, ok := pcs[r.PC]; ok && prev != r.Op {
				t.Fatalf("%s: PC %#x op changed %v -> %v", p.Name, r.PC, prev, r.Op)
			}
			pcs[r.PC] = r.Op
		}
	}
}

// missRatio runs a profile's memory stream through a cache and returns
// the load miss ratio.
func missRatio(p Profile, c *cache.Cache, n uint64) float64 {
	c.ReplaySource(&trace.Limit{S: &trace.MemOnly{S: Source(p, 11)}, N: n}, 0)
	return c.Stats().ReadMissRatio()
}

func paperCache(p index.Placement) *cache.Cache {
	return cache.New(cache.Config{
		Size: 8 << 10, BlockSize: 32, Ways: 2,
		Placement: p, WriteAllocate: false,
	})
}

func TestBadProgramsConflictHeavy(t *testing.T) {
	// The defining property of the bad programs: conventional placement
	// yields a much higher miss ratio than skewed I-Poly placement.
	for _, name := range BadPrograms() {
		p, _ := ByName(name)
		conv := missRatio(p, paperCache(index.NewModulo(7)), 200000)
		ipoly := missRatio(p, paperCache(index.NewIPolyDefault(2, 7, 19)), 200000)
		if conv < 0.30 {
			t.Errorf("%s: conventional miss ratio %.3f too low for a bad program", name, conv)
		}
		if ipoly > conv/2 {
			t.Errorf("%s: I-Poly miss ratio %.3f not well below conventional %.3f", name, ipoly, conv)
		}
	}
}

func TestGoodProgramsPlacementInsensitive(t *testing.T) {
	for _, p := range Suite() {
		if p.Bad {
			continue
		}
		conv := missRatio(p, paperCache(index.NewModulo(7)), 100000)
		ipoly := missRatio(p, paperCache(index.NewIPolyDefault(2, 7, 19)), 100000)
		// Good programs should see broadly similar miss ratios (the paper
		// reports small moves in both directions).
		diff := conv - ipoly
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.12 {
			t.Errorf("%s: |conv-ipoly| = %.3f (conv %.3f, ipoly %.3f) — should be placement-insensitive",
				p.Name, diff, conv, ipoly)
		}
	}
}

func TestStrideStream(t *testing.T) {
	s := NewStrideStream(0x1000, 64, 8, 3)
	if s.Total() != 24 {
		t.Errorf("Total = %d", s.Total())
	}
	recs := trace.Collect(s, 0)
	if len(recs) != 24 {
		t.Fatalf("collected %d", len(recs))
	}
	if recs[0].Addr != 0x1000 || recs[1].Addr != 0x1040 {
		t.Errorf("stride walk wrong: %#x, %#x", recs[0].Addr, recs[1].Addr)
	}
	// Wraps after 8 elements.
	if recs[8].Addr != 0x1000 {
		t.Errorf("no wrap: %#x", recs[8].Addr)
	}
	for _, r := range recs {
		if r.Op != trace.OpLoad {
			t.Error("stride kernel must be load-only")
		}
	}
}

func TestStrideStreamPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewStrideStream(0, 0, 64, 1) },
		func() { NewStrideStream(0, 8, 0, 1) },
		func() { NewStrideStream(0, 8, 64, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTiledMatMul(t *testing.T) {
	s := NewTiledMatMulStream(4, 2, 0, 1<<20, 2<<20)
	recs := trace.Collect(s, 0)
	if len(recs) == 0 {
		t.Fatal("empty matmul trace")
	}
	// Total loop steps: (n/t)^3 tile triples * t^3 inner = n^3 /? with
	// n=4, tile=2: 8 tile-triples × 8 inner steps = 64 (i,j,k) steps.
	// Each step: 2 loads; every last-k step (every 2nd): +load+store.
	// 64 steps → 128 loads + 32×2 = 192 records.
	if len(recs) != 192 {
		t.Errorf("matmul trace has %d records, want 192", len(recs))
	}
	loads, stores := 0, 0
	for _, r := range recs {
		switch r.Op {
		case trace.OpLoad:
			loads++
		case trace.OpStore:
			stores++
		default:
			t.Fatalf("unexpected op %v", r.Op)
		}
	}
	if loads != 160 || stores != 32 {
		t.Errorf("loads=%d stores=%d, want 160/32", loads, stores)
	}
	// All C stores must land inside C's matrix extent.
	for _, r := range recs {
		if r.Op == trace.OpStore {
			if r.Addr < 2<<20 || r.Addr >= 2<<20+4*4*8 {
				t.Errorf("store outside C: %#x", r.Addr)
			}
		}
	}
}

// drainChunked reads a source to exhaustion through ReadChunk with the
// given chunk size.
func drainChunked(s trace.Source, chunkSize int) []trace.Rec {
	buf := make([]trace.Rec, chunkSize)
	var out []trace.Rec
	for {
		k, eof := s.ReadChunk(buf)
		out = append(out, buf[:k]...)
		if eof {
			return out
		}
	}
}

// TestKernelChunkBoundaries pins the stride and tiled-matmul kernels'
// ReadChunk at chunk sizes 7 and 4096 to one-record reads, the
// chunk-boundary check TestGeneratorChunkDeterminism makes for the
// generator.
func TestKernelChunkBoundaries(t *testing.T) {
	for _, k := range []struct {
		name string
		mk   func() trace.Source
		n    int
	}{
		{"stride", func() trace.Source { return NewStrideStream(0x1000, 4096, 64, 5) }, 64 * 5},
		// 16^3 (i,j,k) steps of two loads, plus a C load and store on
		// every 4th.
		{"matmul", func() trace.Source { return NewTiledMatMulStream(16, 4, 0, 1<<16, 2<<16) }, 2*4096 + 2*1024},
	} {
		ref := drainChunked(k.mk(), 1)
		if len(ref) != k.n {
			t.Fatalf("%s: %d records, want %d", k.name, len(ref), k.n)
		}
		for _, chunk := range []int{7, 4096} {
			if got := drainChunked(k.mk(), chunk); !slices.Equal(got, ref) {
				t.Errorf("%s chunk=%d: %d records differ from one-record reads", k.name, chunk, len(got))
			}
		}
	}
}

func TestTiledMatMulPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTiledMatMulStream(4, 3, 0, 0, 0) // n % tile != 0
}
