// Package tracestore is a process-wide memoized store of synthetic
// memory traces.  Every experiment driver that replays a benchmark's
// load/store stream through a cache asks the store for the first max
// memory records of (profile, seed); the store generates that trace
// exactly once, writes it into a packed frame (one uint64 address plus
// one op bit per record — 8.125 bytes instead of the 24-byte
// trace.Rec), and replays it read-only to every subsequent caller.  A
// `repro all` run therefore pays one generation pass per (profile,
// seed) instead of one per driver per design point.  The store keeps
// one entry per (profile, seed, length), under the same key as the
// persistent tier: every caller of one run asks for one length, so a
// different length is simply another entry.
//
// The frame is the trace's one copy: generation writes records straight
// into it, the persistent tier stores and loads exactly its bytes, and
// replay decodes records out of it.
//
// Replayed records carry only the fields a memory-trace consumer reads —
// Op (OpLoad/OpStore) and Addr; PC and register fields are zero.  Cache,
// hierarchy and classifier consumers are oblivious to the difference, so
// results are bit-identical with direct generation.
//
// Memory is bounded: each entry is charged its frame's size, reserved
// before the frame is built, so the byte budget bounds the memory the
// store holds.  Traces whose frame would push the store past its budget
// are not materialized.  Such requests fall back to streaming straight
// from the generator in bounded chunks, so -instructions can scale to
// billions of records without the store growing past its budget.
//
// An optional persistent tier (SetPersistent) backs the in-process
// store with the on-disk content-addressed artifact store: packed
// traces are keyed by a content hash of the profile's generator
// parameters, the seed, the requested length and the packed-format
// version, so they survive across `repro all` runs and are invalidated
// automatically whenever any key ingredient changes.
//
// External profiles (workload.Profile.External != nil) are served the
// same way, except records come from decoding the trace file instead of
// from synthesis.  Because the profile's JSON encoding carries the
// file's content hash rather than its path, the store's keys — and the
// persistent tier's — identify the trace bytes: moving or renaming the
// file hits the same entry, editing it misses.  External traces are
// finite; a file shorter than the requested max yields a short entry
// that is remembered as complete, not re-decoded on every touch.  The
// file's raw bytes are hashed as they are decoded, and a file that no
// longer matches the digest its profile was keyed by fails the
// materialization instead of filling the entry, and the stream of an
// over-budget trace instead of completing it.
package tracestore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ChunkLen is the replay/streaming chunk granularity (records) — the
// buffer capacity ReplayMem uses, and the natural slot size for callers
// of ReplayMemChunks that ring-buffer their own chunks.
const ChunkLen = 1 << 13

// chunkLen is the internal alias the replay loops use.
const chunkLen = ChunkLen

// DefaultMaxBytes is the default store budget.  At the default
// experiment scale (200k memory records × 18 profiles ≈ 30 MB packed)
// the whole suite fits; billion-record runs exceed it and stream.
const DefaultMaxBytes = 1 << 30

// ProfileKey returns the content hash identifying a profile's
// generator parameters: the hex SHA-256 of the profile's canonical
// JSON encoding.  Any parameter change — arrays, mixes, biases, even
// the name — yields a different key, so two differing profiles that
// happen to share a name occupy separate entries instead of silently
// aliasing.
func ProfileKey(prof workload.Profile) string {
	b, err := json.Marshal(prof)
	if err != nil {
		// Profile is a plain-data struct; its encoding cannot fail.
		panic(fmt.Sprintf("tracestore: profile %q not encodable: %v", prof.Name, err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Stats counts store traffic: Generations is the number of generation
// passes performed (the number `repro all` wants at exactly one per
// (profile, seed)), Hits the replays served from memory, Misses the
// requests that had to materialize an entry, Streamed
// the over-budget requests that bypassed the store, and DiskHits /
// DiskPuts the persistent-tier traffic (a disk hit is a Miss that
// loaded the packed trace instead of generating it).
type Stats struct {
	Hits, Misses, Generations, Streamed uint64
	DiskHits, DiskPuts                  uint64
}

// Store memoizes packed memory traces under a byte budget.
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	used     int64
	entries  map[string]*entry // by diskKey
	disk     *store.Store
	stats    Stats
}

// entry is the packed trace of the first max memory records of (prof,
// seed).  mu serialises materialization; once built the frame is
// immutable and read concurrently without locking.
type entry struct {
	mu       sync.Mutex
	prof     workload.Profile
	key      string // diskKey of (prof, seed, max)
	seed     uint64
	max      uint64
	reserved bool  // the budget holds packedBytes(max) for the next materialization
	frame    frame // nil until materialized; fewer than max records only for a finite trace file
}

// frame is a packed trace, in memory exactly as in the persistent tier:
// the little-endian record count n, n little-endian address words, then
// ceil(n/64) little-endian store-bit words (bit i%64 of word i/64 is set
// when record i is a store).
type frame []byte

// packedBytes is the size of the frame of n records: an entry's budget
// cost.
func packedBytes(n uint64) int64 {
	return int64(8 + 8*n + 8*((n+63)/64))
}

// records returns the frame's record count.
func (f frame) records() uint64 {
	return binary.LittleEndian.Uint64(f)
}

// parseFrame returns blob as a frame if its count describes exactly
// len(blob) bytes and at most max records, and nil otherwise.
func parseFrame(blob []byte, max uint64) frame {
	if len(blob) < 8 {
		return nil
	}
	n := binary.LittleEndian.Uint64(blob)
	if n > max || n > uint64(len(blob))/8 || packedBytes(n) != int64(len(blob)) {
		return nil
	}
	return blob
}

// New returns a store with the given byte budget.
func New(maxBytes int64) *Store {
	return &Store{maxBytes: maxBytes, entries: make(map[string]*entry)}
}

// Default is the process-wide store shared by the experiment drivers.
var Default = New(DefaultMaxBytes)

// FormatVersion identifies the packed on-disk trace encoding and the
// workload-generator semantics it snapshots.  Bump it whenever the
// packed layout or the generator's output for a fixed (profile, seed)
// changes: every persisted trace keyed under the old version then
// degrades to a clean regeneration.
const FormatVersion = "repro/trace/v1"

// traceKind is the artifact-store namespace packed traces live under.
const traceKind = "trace"

// SetPersistent attaches (nil detaches) an on-disk artifact store as
// the store's persistent tier: materializations first try to load the
// packed trace from disk, and fresh generations are written back, so
// traces survive across runs.  Correctness never depends on the tier —
// a missing, corrupt or stale artifact just regenerates.
func (s *Store) SetPersistent(d *store.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disk = d
}

// persistent returns the attached persistent tier, or nil.
func (s *Store) persistent() *store.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disk
}

// diskKey derives the content address of one packed trace, in memory
// and on disk, from everything that determines its bytes: the
// packed-format version, the profile's parameter hash, the seed and the
// requested record count.
func diskKey(profileHash string, seed, max uint64) string {
	h := sha256.New()
	h.Write([]byte(FormatVersion + "\x00" + profileHash + "\x00" +
		strconv.FormatUint(seed, 10) + "\x00" + strconv.FormatUint(max, 10)))
	return hex.EncodeToString(h.Sum(nil))
}

// Stats returns a snapshot of the store's traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// UsedBytes returns the bytes of the frames currently held, plus the
// reservations of materializations in flight.
func (s *Store) UsedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// reserveLocked charges the frame of max records to the budget if it
// fits, reporting whether it did.  The caller holds s.mu.
func (s *Store) reserveLocked(max uint64) bool {
	if max > uint64(s.maxBytes)/8 || s.used+packedBytes(max) > s.maxBytes {
		return false
	}
	s.used += packedBytes(max)
	return true
}

// ReplayMem feeds the first max memory records of (prof, seed) to fn in
// bounded in-order chunks, checking ctx between chunks.  The chunk
// buffer is reused across calls to fn; fn must not retain it.  The
// trace is served from the memoized store when it fits the byte budget
// and streamed straight from the generator otherwise.
func (s *Store) ReplayMem(ctx context.Context, prof workload.Profile, seed, max uint64, fn func(recs []trace.Rec)) error {
	buf := make([]trace.Rec, 0, chunkLen)
	return s.ReplayMemChunks(ctx, prof, seed, max,
		func() []trace.Rec { return buf[:0] },
		func(recs []trace.Rec) {
			if len(recs) > 0 {
				fn(recs)
			}
		})
}

// ReplayMemChunks is ReplayMem with caller-owned chunk buffers: before
// each chunk the store calls next for an empty buffer, decodes up to
// cap(next()) records straight into it — one decode, no intermediate
// copy — and hands the filled prefix to emit.  A caller that rotates
// next through a bounded ring (trace.Broadcast) gets a zero-copy
// producer for fan-out pipelines; record contents and order are
// identical to ReplayMem on both the memoized and the streaming path.
// Buffers must have non-zero capacity.
func (s *Store) ReplayMemChunks(ctx context.Context, prof workload.Profile, seed, max uint64, next func() []trace.Rec, emit func(recs []trace.Rec)) error {
	return s.replayRangeChunks(ctx, prof, seed, max, 0, max, next, emit)
}

// ReplayMemRange feeds records [lo, hi) of the first max memory records
// of (prof, seed) to fn in bounded in-order chunks — ReplayMem
// restricted to an index window.  Time-sharded replay is built on it:
// shard k replays its own window after warming up on a slice of its
// predecessor's.  hi is clamped to the trace length; an empty window is
// a no-op.
func (s *Store) ReplayMemRange(ctx context.Context, prof workload.Profile, seed, max, lo, hi uint64, fn func(recs []trace.Rec)) error {
	buf := make([]trace.Rec, 0, chunkLen)
	return s.replayRangeChunks(ctx, prof, seed, max, lo, min(hi, max),
		func() []trace.Rec { return buf[:0] },
		func(recs []trace.Rec) {
			if len(recs) > 0 {
				fn(recs)
			}
		})
}

// MemLen reports how many memory records the first max records of
// (prof, seed) actually contain: max for the infinite synthetic
// generators, possibly fewer for a finite external trace file.  As a
// side effect the trace is materialized (budget permitting), so the
// replays that typically follow are store hits; a materialized trace
// is counted by its length, an over-budget one by streaming it.
func (s *Store) MemLen(ctx context.Context, prof workload.Profile, seed, max uint64) (uint64, error) {
	if max == 0 {
		return 0, ctx.Err()
	}
	e, err := s.acquire(ctx, prof, seed, max)
	if err != nil {
		return 0, err
	}
	if e != nil {
		return e.frame.records(), nil
	}
	buf := make([]trace.Rec, 0, chunkLen)
	var n uint64
	err = streamMemRange(ctx, prof, seed, 0, max,
		func() []trace.Rec { return buf[:0] },
		func(recs []trace.Rec) { n += uint64(len(recs)) })
	return n, err
}

// replayRangeChunks delivers records [lo, hi) of the first max memory
// records: replayed from the store when the max-record prefix fits the
// budget, streamed from the source otherwise.
func (s *Store) replayRangeChunks(ctx context.Context, prof workload.Profile, seed, max, lo, hi uint64, next func() []trace.Rec, emit func(recs []trace.Rec)) error {
	if max == 0 || lo >= hi {
		return ctx.Err()
	}
	e, err := s.acquire(ctx, prof, seed, max)
	switch {
	case err != nil:
		return err
	case e == nil:
		return streamMemRange(ctx, prof, seed, lo, hi, next, emit)
	}
	return replayPackedChunks(ctx, e.frame, lo, hi, next, emit)
}

// acquire is the shared admission/materialization path: it memoizes
// the first max memory records of (prof, seed) when the budget allows
// and returns the ready entry, or nil when the caller must stream
// instead.
func (s *Store) acquire(ctx context.Context, prof workload.Profile, seed, max uint64) (*entry, error) {
	key := diskKey(ProfileKey(prof), seed, max)

	// Admission reserves the frame's bytes up front, so concurrent
	// first-touch requests for different keys each see the others'
	// reservations — the store can never over-materialize past its
	// budget by admitting everyone against a stale usage figure.
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		if !s.reserveLocked(max) {
			s.stats.Streamed++
			s.mu.Unlock()
			return nil, nil
		}
		e = &entry{prof: prof, key: key, seed: seed, max: max, reserved: true}
		s.entries[key] = e
	}
	s.mu.Unlock()

	// Materialize under the entry lock; concurrent requesters for the
	// same trace block here and then replay the shared frame.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.frame != nil {
		s.count(&s.stats.Hits)
		return e, nil
	}
	// A failed materialization released its reservation; a retry
	// reserves again, or streams if the budget has filled since.
	s.mu.Lock()
	if !e.reserved && !s.reserveLocked(max) {
		s.stats.Streamed++
		s.mu.Unlock()
		return nil, nil
	}
	e.reserved = false
	s.stats.Misses++
	s.mu.Unlock()
	// Keys leave out a trace file's path, so a retry after a failure
	// reads through its own requester's path, not the first one's.
	e.prof = prof
	f, err := s.materialize(ctx, e)
	// Settle the reservation to the frame built, or release it: a
	// finite trace file may hold fewer than max records, and a failed
	// materialization holds nothing.
	s.mu.Lock()
	s.used += int64(len(f)) - packedBytes(max)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	e.frame = f
	return e, nil
}

// materialize builds the entry's frame: from the persistent tier when
// it holds a verified one, by generation otherwise, with the fresh
// frame written back so the next run skips the pass.
func (s *Store) materialize(ctx context.Context, e *entry) (frame, error) {
	d := s.persistent()
	if d != nil {
		if f := e.loadDisk(d); f != nil {
			s.count(&s.stats.DiskHits)
			return f, nil
		}
	}
	s.count(&s.stats.Generations)
	f, err := e.generate(ctx)
	if err != nil {
		return nil, err
	}
	if d != nil && e.saveDisk(d, f) {
		s.count(&s.stats.DiskPuts)
	}
	return f, nil
}

// count increments one of the store's traffic counters.
func (s *Store) count(c *uint64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// memSource opens the memory-record source for (prof, seed): the
// synthetic generator for ordinary profiles, the sniffed trace-file
// reader for external ones.  finish, called once reading stops, reports
// a decode or I/O error pending in the source (a sniffed reader signals
// corruption as early EOF plus a deferred error), then hashes the rest
// of a trace file and fails unless its bytes are the ones the profile
// was keyed by; closeSrc releases any underlying file handle.
func memSource(prof workload.Profile, seed uint64) (src trace.Source, finish, closeSrc func() error, err error) {
	if prof.External == nil {
		nop := func() error { return nil }
		return &trace.MemOnly{S: workload.NewGenerator(prof, seed)}, nop, nop, nil
	}
	f, err := trace.OpenFileDigest(prof.External.Path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("tracestore: %w", err)
	}
	finish = func() error {
		if err := f.Err(); err != nil {
			return err
		}
		return checkDigest(f, prof.External)
	}
	return &trace.MemOnly{S: f}, finish, f.Close, nil
}

// checkDigest completes the hash of the raw bytes f was decoded from and
// compares it with the digest ext was keyed by, so the records of a file
// rewritten since are never installed, persisted or replayed without an
// error under the old content's key.
func checkDigest(f *trace.File, ext *workload.ExternalTrace) error {
	sum, size, err := f.Digest()
	if err != nil {
		return fmt.Errorf("tracestore: %s: %w", ext.Path, err)
	}
	if sum != ext.SHA256 || size != ext.Bytes {
		return fmt.Errorf("tracestore: %s changed while it was read: %d bytes with sha256 %s, keyed as %d bytes with sha256 %s",
			ext.Path, size, sum, ext.Bytes, ext.SHA256)
	}
	return nil
}

// generate packs the first max records of the entry's source into a
// frame.  Addresses go straight to their place in the frame; the store
// bits follow the last address, and a trace file's length is known only
// at its end, so they are kept aside until the source ends.  A cancelled
// or failed generation returns no frame.
func (e *entry) generate(ctx context.Context) (frame, error) {
	src, finish, closeSrc, err := memSource(e.prof, e.seed)
	if err != nil {
		return nil, err
	}
	defer closeSrc()
	f := make(frame, packedBytes(e.max))
	addrs := f[8:]
	stores := make([]uint64, (e.max+63)/64)
	buf := make([]trace.Rec, chunkLen)
	var n uint64
	for eof := false; !eof && n < e.max; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var k int
		k, eof = src.ReadChunk(buf[:min(chunkLen, e.max-n)])
		for recs := buf[:k]; len(recs) > 0; {
			run := min(64-n&63, uint64(len(recs)))
			stores[n>>6] |= packRun(addrs[8*n:8*(n+run)], recs[:run]) << (n & 63)
			recs = recs[run:]
			n += run
		}
	}
	if err := finish(); err != nil {
		return nil, err
	}
	if n < e.max {
		// A short trace file: hold only the frame it fills.
		f = append(frame(nil), f[:packedBytes(n)]...)
	}
	binary.LittleEndian.PutUint64(f, n)
	bits := f[8+8*n:]
	for i, w := range stores[:(n+63)/64] {
		binary.LittleEndian.PutUint64(bits[8*i:], w)
	}
	return f, nil
}

// packRun writes the addresses of a run of records that share a store
// word to a, one little-endian word each, and returns the run's store
// bits: bit j is set when record j is a store (OpStore is OpLoad+1).
// It stays out of line for the reason unpackRun does.
//
//go:noinline
func packRun(a []byte, recs []trace.Rec) (w uint64) {
	for j := range recs {
		binary.LittleEndian.PutUint64(a, recs[j].Addr)
		a = a[8:]
		w |= uint64(recs[j].Op-trace.OpLoad) << (j & 63)
	}
	return w
}

// loadDisk returns the entry's frame from the persistent tier, or nil.
// The artifact store has already verified the blob's hash; parseFrame
// re-checks the framing, so a stale or damaged artifact degrades to
// regeneration.  The blob read from disk is the frame held: a load
// costs one copy of the trace.
func (e *entry) loadDisk(d *store.Store) frame {
	blob, ok := d.Get(traceKind, e.key, FormatVersion)
	if !ok {
		return nil
	}
	return parseFrame(blob, e.max)
}

// saveDisk writes the frame to the persistent tier as it is held (best
// effort — a full disk or unwritable directory costs nothing but the
// next run's regeneration), reporting whether the write landed.
func (e *entry) saveDisk(d *store.Store, f frame) bool {
	err := d.Put(traceKind, e.key, FormatVersion,
		map[string]string{
			"profile": e.prof.Name,
			"seed":    strconv.FormatUint(e.seed, 10),
			"records": strconv.FormatUint(f.records(), 10),
		}, f)
	return err == nil
}

// replayPackedChunks decodes records [lo, hi) of the frame (hi clamped
// to its record count) into trace.Rec chunks, each decoded directly into
// a buffer obtained from next and delivered to emit.  The frame is
// immutable, so concurrent replays of one entry are safe.
func replayPackedChunks(ctx context.Context, f frame, lo, hi uint64, next func() []trace.Rec, emit func(recs []trace.Rec)) error {
	limit := min(f.records(), hi)
	for i := lo; i < limit; {
		if err := ctx.Err(); err != nil {
			return err
		}
		buf := chunkBuf(next)
		buf = buf[:min(uint64(cap(buf)), limit-i)]
		f.unpack(buf, i)
		emit(buf)
		i += uint64(len(buf))
	}
	return nil
}

// unpack decodes records [i, i+len(out)) of the frame into out, one run
// of records sharing a store word at a time, so each store word is
// loaded once per 64 records.
func (f frame) unpack(out []trace.Rec, i uint64) {
	n := f.records()
	addrs, bits := f[8:8+8*n], f[8+8*n:]
	for len(out) > 0 {
		run := min(64-i&63, uint64(len(out)))
		unpackRun(out[:run], addrs[8*i:8*(i+run)], binary.LittleEndian.Uint64(bits[8*(i>>6):])>>(i&63))
		out = out[run:]
		i += run
	}
}

// unpackRun decodes a run of records that share a store word: record j
// takes the next address word of a and its op from bit j of w, without
// a branch, since OpStore is OpLoad+1.  It stays out of line: inlined
// into unpack's loop, the compiler spills the run's state to the stack
// on every record.
//
//go:noinline
func unpackRun(out []trace.Rec, a []byte, w uint64) {
	for j := range out {
		out[j] = trace.Rec{Op: trace.OpLoad + trace.Op(w&1), Addr: binary.LittleEndian.Uint64(a)}
		a = a[8:]
		w >>= 1
	}
}

// streamMemRange is the bounded-memory fallback: decode the source and
// deliver records [lo, hi) chunk by chunk without materializing
// anything, each chunk written into a buffer obtained from next.
// Records are reduced to the same Op+Addr shape the packed replay
// delivers, so a consumer sees identical record contents whichever
// path the budget picks.  A trace file is checked against its profile's
// digest once reading stops, so a rewritten file fails the stream, after
// its records were delivered, rather than feeding a result keyed by the
// old bytes.
func streamMemRange(ctx context.Context, prof workload.Profile, seed, lo, hi uint64, next func() []trace.Rec, emit func(recs []trace.Rec)) error {
	src, finish, closeSrc, err := memSource(prof, seed)
	if err != nil {
		return err
	}
	defer closeSrc()
	var pos uint64 // records consumed from the source so far
	if lo > 0 {
		skip := make([]trace.Rec, chunkLen)
		for pos < lo {
			if err := ctx.Err(); err != nil {
				return err
			}
			want := uint64(chunkLen)
			if lo-pos < want {
				want = lo - pos
			}
			k, eof := src.ReadChunk(skip[:want])
			pos += uint64(k)
			if eof {
				return finish()
			}
		}
	}
	for pos < hi {
		if err := ctx.Err(); err != nil {
			return err
		}
		buf := chunkBuf(next)
		want := uint64(cap(buf))
		if hi-pos < want {
			want = hi - pos
		}
		buf = buf[:want]
		k, eof := src.ReadChunk(buf)
		for i := 0; i < k; i++ {
			buf[i] = trace.Rec{Op: buf[i].Op, Addr: buf[i].Addr}
		}
		emit(buf[:k])
		pos += uint64(k)
		if eof {
			break
		}
	}
	return finish()
}

// chunkBuf fetches the caller's next chunk buffer and enforces the
// non-zero-capacity contract (a zero-capacity buffer would loop
// forever delivering nothing).
func chunkBuf(next func() []trace.Rec) []trace.Rec {
	buf := next()
	if cap(buf) == 0 {
		panic("tracestore: chunk buffer must have non-zero capacity")
	}
	return buf[:0]
}
