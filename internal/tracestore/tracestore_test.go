package tracestore

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

func ctxBg() context.Context { return context.Background() }

// collectStore drains max records of (prof, seed) through the store.
func collectStore(t *testing.T, s *Store, prof workload.Profile, seed, max uint64) []trace.Rec {
	t.Helper()
	var out []trace.Rec
	err := s.ReplayMem(ctxBg(), prof, seed, max, func(recs []trace.Rec) {
		out = append(out, recs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// collectDirect generates the reference memory trace straight from the
// generator.
func collectDirect(prof workload.Profile, seed, max uint64) []trace.Rec {
	src := &trace.MemOnly{S: workload.NewGenerator(prof, seed)}
	out := make([]trace.Rec, 0, max)
	buf := make([]trace.Rec, 1024)
	for uint64(len(out)) < max {
		want := uint64(len(buf))
		if max-uint64(len(out)) < want {
			want = max - uint64(len(out))
		}
		k, eof := src.ReadChunk(buf[:want])
		out = append(out, buf[:k]...)
		if eof {
			break
		}
	}
	return out
}

// TestReplayMatchesGenerator pins the store's replay contract: Op and
// Addr of every record match direct generation (PC and registers are
// intentionally dropped by the packed form).
func TestReplayMatchesGenerator(t *testing.T) {
	s := New(DefaultMaxBytes)
	for _, name := range []string{"tomcatv", "compress", "fpppp"} {
		prof, _ := workload.ByName(name)
		const max = 30_000
		got := collectStore(t, s, prof, 7, max)
		want := collectDirect(prof, 7, max)
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].Op != want[i].Op || got[i].Addr != want[i].Addr {
				t.Fatalf("%s: record %d = {%v %#x}, want {%v %#x}",
					name, i, got[i].Op, got[i].Addr, want[i].Op, want[i].Addr)
			}
		}
	}
}

// TestSingleGeneration is the memoization contract: many replays of one
// (profile, seed) cost exactly one generation pass.
func TestSingleGeneration(t *testing.T) {
	s := New(DefaultMaxBytes)
	prof, _ := workload.ByName("swim")
	for i := 0; i < 5; i++ {
		collectStore(t, s, prof, 1997, 10_000)
	}
	st := s.Stats()
	if st.Generations != 1 {
		t.Errorf("5 replays cost %d generations, want 1", st.Generations)
	}
	if st.Hits != 4 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 4/1", st.Hits, st.Misses)
	}
	if st.Streamed != 0 {
		t.Errorf("streamed=%d, want 0", st.Streamed)
	}
}

// TestDistinctKeysGenerateSeparately checks seeds and profiles key
// independently.
func TestDistinctKeysGenerateSeparately(t *testing.T) {
	s := New(DefaultMaxBytes)
	tom, _ := workload.ByName("tomcatv")
	swim, _ := workload.ByName("swim")
	collectStore(t, s, tom, 1, 1_000)
	collectStore(t, s, tom, 2, 1_000)
	collectStore(t, s, swim, 1, 1_000)
	if st := s.Stats(); st.Generations != 3 {
		t.Errorf("3 distinct keys cost %d generations, want 3", st.Generations)
	}
}

// TestGrowthRegenerates checks that a larger request than an entry
// holds regenerates as an entry of its own, keyed by its length as on
// disk: afterwards both lengths replay from memory, each charged at its
// own size, and the shorter trace is a prefix of the longer.
func TestGrowthRegenerates(t *testing.T) {
	s := New(DefaultMaxBytes)
	prof, _ := workload.ByName("gcc")
	small := collectStore(t, s, prof, 3, 1_000)
	big := collectStore(t, s, prof, 3, 5_000)
	if st := s.Stats(); st.Generations != 2 {
		t.Errorf("two lengths cost %d generations, want 2", st.Generations)
	}
	if used, want := s.UsedBytes(), packedBytes(1_000)+packedBytes(5_000); used != want {
		t.Errorf("store holds %d bytes, want %d (one entry per length)", used, want)
	}
	// Each length replays from its own entry without regenerating.
	again := collectStore(t, s, prof, 3, 1_000)
	collectStore(t, s, prof, 3, 5_000)
	if st := s.Stats(); st.Generations != 2 || st.Hits != 2 {
		t.Errorf("re-replays took the wrong path: %+v", st)
	}
	if len(small) != 1_000 || len(again) != 1_000 || len(big) != 5_000 {
		t.Fatalf("replayed %d, %d and %d records", len(small), len(again), len(big))
	}
	for i := range small {
		if small[i] != big[i] || small[i] != again[i] {
			t.Fatalf("prefix diverged at record %d", i)
		}
	}
}

// TestBudgetFallbackStreams checks over-budget requests bypass the
// store, still deliver a correct bounded-memory trace, and leave the
// store empty.
func TestBudgetFallbackStreams(t *testing.T) {
	s := New(64) // tiny: nothing fits
	prof, _ := workload.ByName("wave5")
	const max = 20_000
	got := collectStore(t, s, prof, 5, max)
	want := collectDirect(prof, 5, max)
	if len(got) != len(want) {
		t.Fatalf("streamed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Op != want[i].Op || got[i].Addr != want[i].Addr {
			t.Fatalf("streamed record %d differs", i)
		}
	}
	st := s.Stats()
	if st.Streamed != 1 || st.Generations != 0 {
		t.Errorf("streamed=%d generations=%d, want 1/0", st.Streamed, st.Generations)
	}
	if s.UsedBytes() != 0 {
		t.Errorf("budget-rejected request left %d bytes in the store", s.UsedBytes())
	}
}

// TestConcurrentReplaySingleGeneration hammers one key from many
// goroutines: exactly one generation, identical bytes delivered to all.
func TestConcurrentReplaySingleGeneration(t *testing.T) {
	s := New(DefaultMaxBytes)
	prof, _ := workload.ByName("tomcatv")
	const workers = 8
	const max = 20_000
	want := collectDirect(prof, 11, max)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int
			bad := false
			err := s.ReplayMem(ctxBg(), prof, 11, max, func(recs []trace.Rec) {
				for i := range recs {
					if bad {
						return
					}
					if recs[i].Addr != want[n].Addr || recs[i].Op != want[n].Op {
						bad = true
						errs <- "record mismatch"
						return
					}
					n++
				}
			})
			if err != nil {
				errs <- err.Error()
			} else if !bad && uint64(n) != uint64(len(want)) {
				errs <- "short replay"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := s.Stats(); st.Generations != 1 {
		t.Errorf("%d workers cost %d generations, want 1", workers, st.Generations)
	}
}

// TestBudgetReservedAtAdmission checks the budget is reserved before
// generation, not charged after: two concurrent first-touch requests
// whose combined projection exceeds the budget must never both
// materialize, even though each alone would fit.
func TestBudgetReservedAtAdmission(t *testing.T) {
	const max = 10_000
	one := packedBytes(max)
	s := New(one + one/2) // one trace fits, two do not
	tom, _ := workload.ByName("tomcatv")
	swim, _ := workload.ByName("swim")
	var wg sync.WaitGroup
	for _, prof := range []workload.Profile{tom, swim} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.ReplayMem(ctxBg(), prof, 1, max, func([]trace.Rec) {}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if used := s.UsedBytes(); used > one+one/2 {
		t.Errorf("store materialized %d bytes past its %d budget", used, one+one/2)
	}
	st := s.Stats()
	if st.Generations != 1 || st.Streamed != 1 {
		t.Errorf("generations=%d streamed=%d, want exactly one of each", st.Generations, st.Streamed)
	}
}

// TestProfilesSharingNameDoNotCollide pins the Key fix: entries are
// keyed by a content hash of the profile's generator parameters, so two
// differing profiles under one name materialize separately and each
// replay matches its own direct generation.
func TestProfilesSharingNameDoNotCollide(t *testing.T) {
	a := workload.Profile{
		Name: "impostor", IntOps: 2, RandLoads: 2, HotFrac: 0.5,
		RandRegion: 64 << 10, RandBase: 1 << 24, TakenBias: 0.5, LoopLen: 4,
	}
	b := a
	b.RandRegion = 256 << 10 // same name, different generator parameters
	if ProfileKey(a) == ProfileKey(b) {
		t.Fatal("differing profiles share a ProfileKey")
	}

	s := New(DefaultMaxBytes)
	const max = 5_000
	gotA := collectStore(t, s, a, 7, max) // a materializes first...
	gotB := collectStore(t, s, b, 7, max) // ...and must not shadow b
	if st := s.Stats(); st.Generations != 2 {
		t.Errorf("two distinct profiles cost %d generations, want 2", st.Generations)
	}
	wantB := collectDirect(b, 7, max)
	for i := range gotB {
		if gotB[i].Op != wantB[i].Op || gotB[i].Addr != wantB[i].Addr {
			t.Fatalf("profile b record %d served from profile a's entry", i)
		}
	}
	same := len(gotA) == len(gotB)
	if same {
		for i := range gotA {
			if gotA[i] != gotB[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("the two profiles produced identical traces; the collision test is vacuous")
	}
}

// TestPersistentTierSurvivesRestart is the cross-run contract: a fresh
// in-process store backed by the same disk store replays the packed
// trace without a generation pass, bit-identical to the first run.
func TestPersistentTierSurvivesRestart(t *testing.T) {
	d, err := store.Open(t.TempDir(), store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("tomcatv")
	const max = 20_000

	s1 := New(DefaultMaxBytes)
	s1.SetPersistent(d)
	first := collectStore(t, s1, prof, 7, max)
	if st := s1.Stats(); st.Generations != 1 || st.DiskPuts != 1 || st.DiskHits != 0 {
		t.Fatalf("cold run stats: %+v", st)
	}

	s2 := New(DefaultMaxBytes) // "next process"
	s2.SetPersistent(d)
	second := collectStore(t, s2, prof, 7, max)
	if st := s2.Stats(); st.Generations != 0 || st.DiskHits != 1 {
		t.Errorf("warm run still generated: %+v", st)
	}
	if len(first) != len(second) {
		t.Fatalf("warm replay has %d records, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("warm replay diverges at record %d", i)
		}
	}
	// The warm store replays from memory afterwards, as usual.
	collectStore(t, s2, prof, 7, max)
	if st := s2.Stats(); st.Hits != 1 {
		t.Errorf("replay after disk load missed the in-process tier: %+v", st)
	}
}

// TestPersistentCorruptionRegenerates damages the persisted blob and
// checks the degradation contract end to end: the damaged artifact
// reads as a miss, the trace regenerates, and the replay is correct.
func TestPersistentCorruptionRegenerates(t *testing.T) {
	dir := t.TempDir()
	d, err := store.Open(dir, store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("swim")
	const max = 10_000
	s1 := New(DefaultMaxBytes)
	s1.SetPersistent(d)
	collectStore(t, s1, prof, 3, max)

	// Flip one byte of the persisted blob.
	var blobs []string
	filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err == nil && !de.IsDir() && strings.HasSuffix(path, ".blob") {
			blobs = append(blobs, path)
		}
		return nil
	})
	if len(blobs) != 1 {
		t.Fatalf("found %d persisted blobs, want 1", len(blobs))
	}
	raw, err := os.ReadFile(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(blobs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(DefaultMaxBytes)
	s2.SetPersistent(d)
	got := collectStore(t, s2, prof, 3, max)
	if st := s2.Stats(); st.Generations != 1 || st.DiskHits != 0 {
		t.Errorf("corrupt artifact did not degrade to regeneration: %+v", st)
	}
	want := collectDirect(prof, 3, max)
	for i := range got {
		if got[i].Op != want[i].Op || got[i].Addr != want[i].Addr {
			t.Fatalf("regenerated replay wrong at record %d", i)
		}
	}
}

// TestCancellation propagates context errors out of replay.
func TestCancellation(t *testing.T) {
	s := New(DefaultMaxBytes)
	prof, _ := workload.ByName("go")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.ReplayMem(ctx, prof, 1, 100_000, func([]trace.Rec) {})
	if err == nil {
		t.Error("cancelled replay returned nil error")
	}
}

// TestMemLenMatchesReplay pins MemLen to the number of records
// ReplayMem delivers, for a memoized trace (and a different length of
// it, which is an entry of its own), a trace loaded from the persistent
// tier, an external trace shorter than the request, and an over-budget
// trace that streams.
func TestMemLenMatchesReplay(t *testing.T) {
	tom, _ := workload.ByName("tomcatv")
	var din strings.Builder
	if err := trace.WriteDin(&din, collectDirect(tom, 7, 500)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "short.din")
	if err := os.WriteFile(path, []byte(din.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	short, err := workload.ExternalProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.Open(t.TempDir(), store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	persisted := New(DefaultMaxBytes)
	persisted.SetPersistent(d)
	collectStore(t, persisted, tom, 3, 20_000)
	loaded := New(DefaultMaxBytes)
	loaded.SetPersistent(d)
	memoized := New(DefaultMaxBytes)
	collectStore(t, memoized, tom, 7, 20_000)

	cases := []struct {
		name      string
		s         *Store
		prof      workload.Profile
		seed, max uint64
		want      uint64
		stats     func(Stats) bool
	}{
		{"memoized", memoized, tom, 7, 20_000, 20_000, func(st Stats) bool { return st.Hits > 0 && st.Generations == 1 }},
		{"a different length is its own entry", memoized, tom, 7, 1_000, 1_000, func(st Stats) bool { return st.Generations == 2 }},
		{"disk-loaded", loaded, tom, 3, 20_000, 20_000, func(st Stats) bool { return st.DiskHits == 1 && st.Generations == 0 }},
		{"short external", New(DefaultMaxBytes), short, 0, 1_000, 500, func(st Stats) bool { return st.Generations == 1 }},
		{"over budget", New(64), tom, 7, 20_000, 20_000, func(st Stats) bool { return st.Streamed > 0 && st.Generations == 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := tc.s.MemLen(ctxBg(), tc.prof, tc.seed, tc.max)
			if err != nil {
				t.Fatal(err)
			}
			replayed := uint64(len(collectStore(t, tc.s, tc.prof, tc.seed, tc.max)))
			if n != tc.want || replayed != tc.want {
				t.Fatalf("MemLen = %d, ReplayMem delivers %d, want %d", n, replayed, tc.want)
			}
			if st := tc.s.Stats(); !tc.stats(st) {
				t.Errorf("MemLen took the wrong path: %+v", st)
			}
		})
	}
}

// TestFrameBytesPinned pins the bytes the persistent tier stores: the
// SHA-256 of the frame of tomcatv's first 1,000 memory records at seed
// 1, as the struct-of-arrays encoder the frame replaced wrote them.  The
// layout cannot change without bumping FormatVersion, which retires
// every stored trace.
func TestFrameBytesPinned(t *testing.T) {
	const (
		version = "repro/trace/v1"
		sum     = "a3301fcb8d11609aa261342557be4df5de46acbc1b34c4659612908cf3b88d14"
		size    = 8136
	)
	if FormatVersion != version {
		t.Fatalf("FormatVersion %q: re-pin the frame of the new version", FormatVersion)
	}
	d, err := store.Open(t.TempDir(), store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	tom, _ := workload.ByName("tomcatv")
	s := New(DefaultMaxBytes)
	s.SetPersistent(d)
	if _, err := s.MemLen(ctxBg(), tom, 1, 1_000); err != nil {
		t.Fatal(err)
	}
	blob, ok := d.Get(traceKind, diskKey(ProfileKey(tom), 1, 1_000), FormatVersion)
	if !ok {
		t.Fatal("the frame was not persisted")
	}
	got := sha256.Sum256(blob)
	if len(blob) != size || hex.EncodeToString(got[:]) != sum {
		t.Errorf("persisted frame: %d bytes, sha256 %x; pinned %d bytes, sha256 %s", len(blob), got, size, sum)
	}
}

// TestOneCopyPerMaterialization pins that a trace is held as one frame:
// generating and persisting a 1<<20-record trace allocates about one
// frame, so does loading it into a fresh store, and each store is
// charged exactly the frame's size.
func TestOneCopyPerMaterialization(t *testing.T) {
	d, err := store.Open(t.TempDir(), store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	gcc, _ := workload.ByName("gcc")
	const max = 1 << 20
	for _, step := range []struct {
		name string
		want func(Stats) bool
	}{
		{"generate and persist", func(st Stats) bool { return st.Generations == 1 && st.DiskPuts == 1 }},
		{"disk load", func(st Stats) bool { return st.DiskHits == 1 && st.Generations == 0 }},
	} {
		s := New(DefaultMaxBytes)
		s.SetPersistent(d)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := s.MemLen(ctxBg(), gcc, 1, max)
		runtime.ReadMemStats(&after)
		if err != nil || n != max {
			t.Fatalf("%s: MemLen = %d, %v", step.name, n, err)
		}
		if st := s.Stats(); !step.want(st) {
			t.Fatalf("%s took the wrong path: %+v", step.name, st)
		}
		frames := float64(after.TotalAlloc-before.TotalAlloc) / float64(packedBytes(max))
		t.Logf("%s: %.2f frames allocated", step.name, frames)
		if frames > 1.1 {
			t.Errorf("%s allocated %.2f frames, want one", step.name, frames)
		}
		if used := s.UsedBytes(); used != packedBytes(max) {
			t.Errorf("%s: store charged %d bytes for a %d-byte frame", step.name, used, packedBytes(max))
		}
	}
}

// TestExternalRewriteFails closes the window between a trace file's
// digest and its decode: a profile keyed by file A, whose path then
// holds B, must fail to materialize, naming the file, with nothing held
// or persisted, whether the decode stops at the record limit (the rest
// of the file is hashed then) or at the end of the file.  Streaming the
// trace past a full budget fails the same way.  A second path that
// still holds A has the same key, and the entry the failures left then
// materializes through it.  The files are gzipped, so the hash is of
// the bytes below the decompressor.
func TestExternalRewriteFails(t *testing.T) {
	tom, _ := workload.ByName("tomcatv")
	path := filepath.Join(t.TempDir(), "t.din.gz")
	pathA := filepath.Join(t.TempDir(), "t.din.gz")
	write := func(path string, seed uint64) {
		t.Helper()
		var din bytes.Buffer
		zw := gzip.NewWriter(&din)
		if err := trace.WriteDin(zw, collectDirect(tom, seed, 2_000)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, din.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(path, 1)
	write(pathA, 1)
	prof, err := workload.ExternalProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	profA, err := workload.ExternalProfile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	if ProfileKey(profA) != ProfileKey(prof) {
		t.Fatal("two paths holding the same bytes are keyed apart")
	}
	d, err := store.Open(t.TempDir(), store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	write(path, 2)
	for _, max := range []uint64{1_000, 5_000} {
		s := New(DefaultMaxBytes)
		s.SetPersistent(d)
		for try := 0; try < 2; try++ { // a retry reserves and fails again
			if _, err := s.MemLen(ctxBg(), prof, 0, max); err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("max %d: MemLen over a rewritten file = %v, want an error naming it", max, err)
			}
			if st, used := s.Stats(), s.UsedBytes(); st.DiskPuts != 0 || used != 0 {
				t.Fatalf("max %d: a rewritten file left %d bytes held, stats %+v", max, used, st)
			}
		}
		want := min(max, 2_000)
		full := New(0) // every request streams
		if _, err := full.MemLen(ctxBg(), prof, 0, max); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("max %d: streaming a rewritten file = %v, want an error naming it", max, err)
		}
		if err := full.ReplayMem(ctxBg(), prof, 0, max, func([]trace.Rec) {}); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("max %d: replaying a rewritten file past the budget = %v, want an error naming it", max, err)
		}
		if n, err := full.MemLen(ctxBg(), profA, 0, max); err != nil || n != want {
			t.Fatalf("max %d: streaming file A = %d, %v; want %d", max, n, err, want)
		}
		n, err := s.MemLen(ctxBg(), profA, 0, max)
		if err != nil || n != want {
			t.Fatalf("max %d: MemLen through the path that holds file A = %d, %v; want %d", max, n, err, want)
		}
		if st, used := s.Stats(), s.UsedBytes(); st.DiskPuts != 1 || used != packedBytes(n) {
			t.Errorf("max %d: file A holds %d bytes, stats %+v", max, used, st)
		}
		got := collectStore(t, s, prof, 0, max)
		for i, r := range collectDirect(tom, 1, n) {
			if got[i].Op != r.Op || got[i].Addr != r.Addr {
				t.Fatalf("max %d: record %d differs from file A's", max, i)
			}
		}
	}
}
