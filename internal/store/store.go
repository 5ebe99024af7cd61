// Package store is the on-disk content-addressed artifact store
// beneath the repo's three caching clients: packed memory traces
// (internal/tracestore's persistent tier), finished experiment Reports
// (internal/exp's result cache) and trace-file digests (internal/trace's
// digest memo, keyed by device and inode).  An artifact is a blob of
// bytes plus a typed JSON manifest, addressed by a client-computed
// content hash of everything that determines the blob — so `repro all`
// only ever pays for a computation once, in the Mattson single-pass
// spirit, across process boundaries.
//
// The store is defensive by construction: writes are atomic
// (temp-file + rename, blob before manifest, so a torn write can never
// produce a manifest that points at missing bytes without the blob
// hash catching it), reads verify the manifest schema, identity,
// client revision and the blob's SHA-256 before returning anything,
// and every verification failure degrades to a miss — the damaged
// entry is removed and the caller recomputes.  A corrupt cache can
// cost time; it can never change an answer.
//
// Capacity is a soft byte budget: when a write pushes the store past
// it, least-recently-used entries (recency is refreshed on every hit)
// are evicted until it fits again.  The entry being written is never
// evicted by its own write.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Schema tags every manifest written by this package.  Bump it when
// the manifest layout or the blob framing contract changes; entries
// carrying an older schema read as misses and are removed.
const Schema = "repro/store/v1"

// DefaultMaxBytes is the default byte budget (1 GiB): the full default
// experiment suite's traces and reports fit with room to spare.
const DefaultMaxBytes = 1 << 30

// Manifest is the typed descriptor stored beside every blob.  It binds
// the blob to its identity (kind + key), the client's revision string,
// and the blob's hash and size, so a read can prove the pair is intact
// and still meaningful before trusting it.
type Manifest struct {
	// Schema is the store-level manifest schema tag (Schema).
	Schema string `json:"schema"`
	// Kind is the artifact namespace ("trace", "report", ...).
	Kind string `json:"kind"`
	// Key is the content-hash address the artifact was stored under.
	Key string `json:"key"`
	// Rev is the client's revision string (trace-format version, report
	// schema + experiment rev, ...); a Get with a different rev misses.
	Rev string `json:"rev"`
	// BlobSHA256 is the hex SHA-256 of the blob bytes.
	BlobSHA256 string `json:"blob_sha256"`
	// BlobBytes is the blob length, double-checked before hashing.
	BlobBytes int64 `json:"blob_bytes"`
	// Meta carries optional human-readable key ingredients for
	// debugging (`cat *.json` explains what an entry is).
	Meta map[string]string `json:"meta,omitempty"`
}

// Stats counts store traffic since Open.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Writes counts successful Puts.
	Writes uint64 `json:"writes"`
	// Evictions counts entries removed by the byte budget.
	Evictions uint64 `json:"evictions"`
	// Corruptions counts entries dropped because verification failed
	// (unreadable or mismatched manifest, truncated or bit-flipped
	// blob); each one also counts as a miss.
	Corruptions uint64 `json:"corruptions"`
}

// Line renders the counters as the canonical one-line summary.  It is
// the single formatter behind both the CLI's end-of-run stderr stats
// line and the HTTP service's /v1/stats store_line field, so the two
// can never drift; a contract test pins each consumer to it.
func (s Stats) Line() string {
	return fmt.Sprintf("store: %d hits, %d misses, %d writes, %d evictions, %d corruptions",
		s.Hits, s.Misses, s.Writes, s.Evictions, s.Corruptions)
}

// Store is an on-disk content-addressed artifact store.  All methods
// are safe for concurrent use from one process; concurrent processes
// sharing a directory stay safe (atomic renames, hash-verified reads)
// but may redundantly recompute.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	used    int64
	seq     int64
	entries map[string]*entryInfo
	stats   Stats
}

// entryInfo is the in-memory index of one on-disk entry: its total
// size (manifest + blob) and its recency sequence for LRU eviction.
type entryInfo struct {
	size int64
	seq  int64
}

// Open opens (creating if needed) the store rooted at dir with the
// given byte budget, indexing any entries a previous process left
// behind.  Recency of pre-existing entries is recovered from file
// modification times, which Get keeps refreshed.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, entries: make(map[string]*entryInfo)}
	kinds, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, kd := range kinds {
		if !kd.IsDir() {
			continue
		}
		kind := kd.Name()
		files, err := os.ReadDir(filepath.Join(dir, kind))
		if err != nil {
			continue
		}
		for _, f := range files {
			name, ok := strings.CutSuffix(f.Name(), manifestExt)
			if !ok {
				continue
			}
			mi, err := f.Info()
			if err != nil {
				continue
			}
			size := mi.Size()
			if bi, err := os.Stat(s.blobPath(kind, name)); err == nil {
				size += bi.Size()
			}
			seq := mi.ModTime().UnixNano()
			s.entries[kind+"/"+name] = &entryInfo{size: size, seq: seq}
			s.used += size
			if seq > s.seq {
				s.seq = seq
			}
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// UsedBytes returns the indexed on-disk footprint.
func (s *Store) UsedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

const (
	manifestExt = ".json"
	blobExt     = ".blob"
)

func (s *Store) manifestPath(kind, key string) string {
	return filepath.Join(s.dir, kind, key+manifestExt)
}

func (s *Store) blobPath(kind, key string) string {
	return filepath.Join(s.dir, kind, key+blobExt)
}

// checkNames panics on a kind or key that is not filesystem-safe.
// Kinds are package-internal constants and keys are hex hashes, so a
// violation is a programming error, not an input error.
func checkNames(kind, key string) {
	ok := func(r rune) bool {
		return r == '-' || (r >= '0' && r <= '9') || (r >= 'a' && r <= 'z')
	}
	if kind == "" || key == "" || strings.IndexFunc(kind, func(r rune) bool { return !ok(r) }) >= 0 ||
		strings.IndexFunc(key, func(r rune) bool { return !ok(r) }) >= 0 {
		panic(fmt.Sprintf("store: unsafe artifact name %q/%q", kind, key))
	}
}

// sha256hex returns the hex SHA-256 of b.
func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Get returns the blob stored under (kind, key) if it is present and
// verifiably intact: manifest readable, store schema current, identity
// and client rev matching, blob length and SHA-256 matching the
// manifest.  Any verification failure removes the entry and reports a
// miss — the caller recomputes and the next Put repairs the store.  A
// hit refreshes the entry's LRU recency.
func (s *Store) Get(kind, key, rev string) ([]byte, bool) {
	checkNames(kind, key)
	s.mu.Lock()
	defer s.mu.Unlock()

	mb, err := os.ReadFile(s.manifestPath(kind, key))
	if err != nil {
		s.stats.Misses++
		return nil, false
	}
	var m Manifest
	if err := json.Unmarshal(mb, &m); err != nil ||
		m.Schema != Schema || m.Kind != kind || m.Key != key {
		s.dropLocked(kind, key, true)
		return nil, false
	}
	if m.Rev != rev {
		// Stale client revision: not corruption, but the entry can never
		// hit again under this key derivation — reclaim it.
		s.dropLocked(kind, key, false)
		return nil, false
	}
	blob, err := os.ReadFile(s.blobPath(kind, key))
	if err != nil || int64(len(blob)) != m.BlobBytes || sha256hex(blob) != m.BlobSHA256 {
		s.dropLocked(kind, key, true)
		return nil, false
	}

	s.stats.Hits++
	s.touchLocked(kind, key)
	return blob, true
}

// Manifest returns the verified manifest stored under (kind, key)
// without reading the blob; it misses (without dropping the entry) if
// the manifest is unreadable or carries a different identity.
func (s *Store) Manifest(kind, key string) (Manifest, bool) {
	checkNames(kind, key)
	mb, err := os.ReadFile(s.manifestPath(kind, key))
	if err != nil {
		return Manifest{}, false
	}
	var m Manifest
	if err := json.Unmarshal(mb, &m); err != nil || m.Schema != Schema || m.Kind != kind || m.Key != key {
		return Manifest{}, false
	}
	return m, true
}

// touchLocked refreshes (kind, key)'s LRU recency, mirroring it onto
// the manifest's mtime (best effort) so recency survives restarts.
func (s *Store) touchLocked(kind, key string) {
	e, ok := s.entries[kind+"/"+key]
	if !ok {
		return
	}
	s.seq++
	e.seq = s.seq
	now := time.Now()
	_ = os.Chtimes(s.manifestPath(kind, key), now, now)
}

// dropLocked removes (kind, key) from disk and the index, counting a
// miss and, when corrupt is set, a corruption.
func (s *Store) dropLocked(kind, key string, corrupt bool) {
	s.stats.Misses++
	if corrupt {
		s.stats.Corruptions++
	}
	s.removeLocked(kind, key)
}

// removeLocked deletes the entry's files (manifest first, so a
// concurrent reader can at worst see a blob without a manifest) and
// un-indexes it.
func (s *Store) removeLocked(kind, key string) {
	_ = os.Remove(s.manifestPath(kind, key))
	_ = os.Remove(s.blobPath(kind, key))
	id := kind + "/" + key
	if e, ok := s.entries[id]; ok {
		s.used -= e.size
		delete(s.entries, id)
	}
}

// Put stores blob under (kind, key) with the client revision rev and
// optional descriptive meta, atomically: the blob lands (temp file +
// rename) before the manifest that vouches for it, so no reader can
// observe a manifest without a verifiable blob.  A re-Put of an
// existing key replaces it.  Put then enforces the byte budget by
// evicting least-recently-used entries (never the one just written).
func (s *Store) Put(kind, key, rev string, meta map[string]string, blob []byte) error {
	checkNames(kind, key)
	s.mu.Lock()
	defer s.mu.Unlock()

	kindDir := filepath.Join(s.dir, kind)
	if err := os.MkdirAll(kindDir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	m := Manifest{
		Schema:     Schema,
		Kind:       kind,
		Key:        key,
		Rev:        rev,
		BlobSHA256: sha256hex(blob),
		BlobBytes:  int64(len(blob)),
		Meta:       meta,
	}
	mb, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeFileAtomic(kindDir, s.blobPath(kind, key), blob); err != nil {
		return err
	}
	if err := writeFileAtomic(kindDir, s.manifestPath(kind, key), mb); err != nil {
		// The orphaned blob is unreachable without a manifest; reclaim it.
		_ = os.Remove(s.blobPath(kind, key))
		return err
	}

	id := kind + "/" + key
	if e, ok := s.entries[id]; ok {
		s.used -= e.size
	}
	s.seq++
	s.entries[id] = &entryInfo{size: int64(len(blob) + len(mb)), seq: s.seq}
	s.used += int64(len(blob) + len(mb))
	s.stats.Writes++
	s.evictLocked(id)
	return nil
}

// evictLocked removes least-recently-used entries until the store fits
// its byte budget again, sparing keep (the entry just written): a
// single artifact larger than the whole budget stays until the next
// write displaces it.
func (s *Store) evictLocked(keep string) {
	for s.used > s.maxBytes {
		victim := ""
		var oldest int64
		for id, e := range s.entries {
			if id == keep {
				continue
			}
			if victim == "" || e.seq < oldest {
				victim, oldest = id, e.seq
			}
		}
		if victim == "" {
			return
		}
		kind, key, _ := strings.Cut(victim, "/")
		s.removeLocked(kind, key)
		s.stats.Evictions++
	}
}

// writeFileAtomic writes data to path via a uniquely-named temp file
// in dir and an atomic rename, fsync-free by design: a crash can lose
// the entry, and verification-on-read already treats a torn entry as
// a miss.
func writeFileAtomic(dir, path string, data []byte) error {
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
