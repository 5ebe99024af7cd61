package stackdist

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/trace"
)

// synthRecs builds a deterministic synthetic trace with a mix of
// sequential runs, strided sweeps and random touches — enough locality
// to exercise hits at many stack depths — as trace records (85% loads).
func synthRecs(seed int64, n int) []trace.Rec {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Rec, 0, n)
	addr := uint64(rng.Intn(1 << 20))
	for len(recs) < n {
		op := trace.OpLoad
		if rng.Intn(100) < 15 {
			op = trace.OpStore
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // sequential
			addr += uint64(4 * (1 + rng.Intn(4)))
		case 4, 5, 6: // revisit a recent region
			addr -= uint64(32 * rng.Intn(64))
		case 7, 8: // strided
			addr += uint64(1) << uint(5+rng.Intn(9))
		default: // jump
			addr = uint64(rng.Intn(1 << 22))
		}
		recs = append(recs, trace.Rec{Addr: addr &^ 3, Op: op})
		if rng.Intn(50) == 0 { // non-memory noise the engine must skip
			recs = append(recs, trace.Rec{Op: trace.OpBranch})
		}
	}
	return recs[:n]
}

// cacheConfig builds the explicit single-cache config matching one
// (engine, ways) point.
func cacheConfig(cfg Config, ways int) cache.Config {
	var place index.Placement
	if _, ok := cfg.Placement.(index.Single); !ok {
		place = cfg.Placement
	}
	return cache.Config{
		Size:        cfg.Sets * cfg.BlockSize * ways,
		BlockSize:   cfg.BlockSize,
		Ways:        ways,
		Placement:   place,
		Replacement: cache.LRU,
	}
}

func diffOne(t *testing.T, cfg Config, recs []trace.Rec) {
	t.Helper()
	e := New(cfg)
	e.AccessStream(recs)
	for w := 1; w <= cfg.MaxWays; w++ {
		c := cache.New(cacheConfig(cfg, w))
		c.AccessStream(recs)
		if got, want := e.StatsAt(w), c.Stats(); got != want {
			t.Errorf("%s sets=%d ways=%d:\n engine %+v\n cache  %+v",
				placeName(cfg), cfg.Sets, w, got, want)
		}
	}
}

func placeName(cfg Config) string {
	if cfg.Placement == nil {
		return "a2"
	}
	return cfg.Placement.Name()
}

// TestEngineMatchesCacheExhaustive is the core differential harness:
// every Stats field of every tracked associativity must be bit-identical
// to the reference single-cache engine, across placements and set
// counts.
func TestEngineMatchesCacheExhaustive(t *testing.T) {
	recs := synthRecs(1997, 30000)
	vbits := 14 // 19 - log2(32)
	for _, sets := range []int{1, 2, 16, 128} {
		bits := 0
		for s := sets; s > 1; s >>= 1 {
			bits++
		}
		places := []index.Placement{index.NewModulo(bits)}
		if sets > 1 {
			places = append(places,
				index.NewXORFold(bits, false),
				index.MustNew(index.SchemeIPoly, bits, 1, vbits))
		}
		for _, pl := range places {
			diffOne(t, Config{Sets: sets, BlockSize: 32, MaxWays: 5, Placement: pl}, recs)
		}
	}
}

// TestEngineMatchesCacheGoldenGeometries pins the exact geometries the
// golden suite exercises through stack distance: the paper's 8 KB / 32 B
// direct-mapped, 2-way and fully-associative organisations.
func TestEngineMatchesCacheGoldenGeometries(t *testing.T) {
	recs := synthRecs(42, 60000)
	diffOne(t, Config{Sets: 256, BlockSize: 32, MaxWays: 2, Placement: index.NewModulo(8)}, recs)
	diffOne(t, Config{Sets: 128, BlockSize: 32, MaxWays: 4, Placement: index.NewModulo(7)}, recs)
	diffOne(t, Config{Sets: 128, BlockSize: 32, MaxWays: 2, Placement: index.NewXORFold(7, false)}, recs)

	// The paper's fully-associative point, 1 set and 256 ways: compare
	// only a few associativities (256 explicit caches is slow).
	cfg := Config{Sets: 1, BlockSize: 32, MaxWays: 256, Placement: index.Single{}}
	e := New(cfg)
	e.AccessStream(recs)
	for _, w := range []int{1, 2, 17, 128, 256} {
		c := cache.New(cacheConfig(cfg, w))
		c.AccessStream(recs)
		if got, want := e.StatsAt(w), c.Stats(); got != want {
			t.Errorf("fa ways=%d:\n engine %+v\n cache  %+v", w, got, want)
		}
	}
}

// TestChunkSizeInvariance: the engine consumes the trace in chunks and
// its results must not depend on where the chunk boundaries fall.
func TestChunkSizeInvariance(t *testing.T) {
	recs := synthRecs(7, 20000)
	mk := func() *Engine {
		return New(Config{Sets: 64, BlockSize: 32, MaxWays: 4, Placement: index.NewXORFold(6, false)})
	}
	ref := mk()
	ref.AccessStream(recs)
	for _, chunk := range []int{1, 3, 7, 100, 4096, len(recs)} {
		e := mk()
		for lo := 0; lo < len(recs); lo += chunk {
			hi := lo + chunk
			if hi > len(recs) {
				hi = len(recs)
			}
			e.AccessStream(recs[lo:hi])
		}
		for w := 1; w <= 4; w++ {
			if got, want := e.StatsAt(w), ref.StatsAt(w); got != want {
				t.Errorf("chunk=%d ways=%d: %+v != %+v", chunk, w, got, want)
			}
		}
	}
}

// TestMaxWaysSubsetConsistency: StatsAt(w) must not depend on how much
// deeper than w the engine tracks — truncation is exact.
func TestMaxWaysSubsetConsistency(t *testing.T) {
	recs := synthRecs(11, 25000)
	mk := func(maxWays int) *Engine {
		return New(Config{Sets: 32, BlockSize: 32, MaxWays: maxWays, Placement: index.NewModulo(5)})
	}
	deep := mk(12)
	deep.AccessStream(recs)
	for _, mw := range []int{1, 2, 3, 6} {
		e := mk(mw)
		e.AccessStream(recs)
		for w := 1; w <= mw; w++ {
			if got, want := e.StatsAt(w), deep.StatsAt(w); got != want {
				t.Errorf("maxWays=%d ways=%d: %+v != %+v", mw, w, got, want)
			}
		}
	}
}

// TestMattsonMatchesCacheSingle: the unbounded curve engine must be
// bit-identical to explicit fully-associative write-allocate caches at
// every capacity, including after slot compaction (the 80k-access trace
// overflows the initial slot table via re-accesses).
func TestMattsonMatchesCacheSingle(t *testing.T) {
	recs := synthRecs(1970, 80000)
	m := NewMattson(32)
	m.AccessStream(recs)
	for _, capBlocks := range []int{1, 2, 8, 64, 257, 1024, 1 << 15} {
		c := cache.New(cache.Config{
			Size: capBlocks * 32, BlockSize: 32, Ways: capBlocks,
			Placement: index.Single{}, Replacement: cache.LRU,
			WriteBack: false, WriteAllocate: true,
		})
		c.AccessStream(recs)
		lm, tm := m.MissesAt(capBlocks)
		st := c.Stats()
		if lm != st.ReadMisses || tm != st.Misses {
			t.Errorf("cap=%d: mattson (%d, %d) != cache (%d, %d)",
				capBlocks, lm, tm, st.ReadMisses, st.Misses)
		}
	}
	// A cache of no lines misses every access.
	if _, tm := m.MissesAt(0); tm != uint64(countMem(recs)) {
		t.Errorf("MissesAt(0) = %d misses, want all %d accesses", tm, countMem(recs))
	}
}

func countMem(recs []trace.Rec) int {
	n := 0
	for i := range recs {
		if recs[i].Op.IsMem() {
			n++
		}
	}
	return n
}

// TestMattsonCompaction forces several compaction cycles with a small
// working set and verifies distances stay exact against a fresh run's
// histogram totals.
func TestMattsonCompaction(t *testing.T) {
	// 200k accesses over 1k blocks: next slot passes 65536 three times.
	rng := rand.New(rand.NewSource(5))
	m := NewMattson(32)
	ref := cache.New(cache.Config{
		Size: 100 * 32, BlockSize: 32, Ways: 100,
		Placement: index.Single{}, Replacement: cache.LRU, WriteAllocate: true,
	})
	for i := 0; i < 200000; i++ {
		blk := uint64(rng.Intn(1000))
		w := rng.Intn(10) == 0
		m.AccessBlock(blk, w)
		ref.AccessBlock(blk, w)
	}
	lm, tm := m.MissesAt(100)
	if lm != ref.Stats().ReadMisses || tm != ref.Stats().Misses {
		t.Errorf("post-compaction: (%d, %d) != (%d, %d)", lm, tm, ref.Stats().ReadMisses, ref.Stats().Misses)
	}
	// Past the footprint only the first touch of each block misses.
	if _, tm := m.MissesAt(1 << 20); tm != 1000 {
		t.Errorf("MissesAt(1<<20) = %d misses, want the 1000 distinct blocks", tm)
	}
}

// TestFamilyCurves checks the Family wrapper: curve points must equal
// the member engines' StatsAt ratios and carry the right sizes.
func TestFamilyCurves(t *testing.T) {
	recs := synthRecs(13, 20000)
	f := NewFamily(index.SchemeModulo, []int{32, 64, 128}, 32, 2, 14, false, false)
	f.AccessStream(recs)
	curves := f.Curves()
	if len(curves) != 2 {
		t.Fatalf("got %d curves, want 2", len(curves))
	}
	for wi, c := range curves {
		w := wi + 1
		if c.Ways != w || c.Scheme != "a2" || c.Len() != 3 {
			t.Fatalf("curve meta: %+v", c)
		}
		for i, e := range f.Engines() {
			st := e.StatsAt(w)
			if want := int64(e.Sets()) * 32 * int64(w); c.SizesBytes[i] != want {
				t.Errorf("size[%d] = %d, want %d", i, c.SizesBytes[i], want)
			}
			if got, want := c.ReadMissPct[i], 100*st.ReadMissRatio(); got != want {
				t.Errorf("readmiss[%d] = %v, want %v", i, got, want)
			}
		}
	}
}

// TestEngineRejects pins the constructor's validation contract.
func TestEngineRejects(t *testing.T) {
	bad := []Config{
		{Sets: 0, BlockSize: 32, MaxWays: 1},
		{Sets: 3, BlockSize: 32, MaxWays: 1},
		{Sets: 16, BlockSize: 33, MaxWays: 1},
		{Sets: 16, BlockSize: 32, MaxWays: 0},
		{Sets: 16, BlockSize: 32, MaxWays: 2, Placement: index.NewXORFold(4, true)}, // skewed
		{Sets: 16, BlockSize: 32, MaxWays: 2, Placement: index.NewModulo(5)},        // set mismatch
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
	func() {
		defer func() {
			if recover() == nil {
				t.Error("StatsAt(0) should panic")
			}
		}()
		New(Config{Sets: 16, BlockSize: 32, MaxWays: 2}).StatsAt(0)
	}()
	for _, p := range []struct{ wb, wa bool }{{true, false}, {false, true}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFamily(writeBack=%v, writeAlloc=%v) should panic", p.wb, p.wa)
				}
			}()
			NewFamily(index.SchemeModulo, []int{16}, 32, 2, 14, p.wb, p.wa)
		}()
	}
}
