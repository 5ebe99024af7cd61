package trace

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/store"
)

// digestMargin is how much older than an entry's recorded time a
// file's mtime and ctime must both be before the entry is trusted:
// git's racy-entry rule with slack.  File timestamps can be coarser
// than their nanosecond fields suggest (Linux stamps them from a
// coarse clock, FAT keeps 2 s), so two writes a few ms apart can share
// an mtime.  Stamps more than one granularity older than the moment
// the file was stat'ed guarantee that any later write moves a stamp.
const digestMargin = 2 * time.Second

// digestKind is the artifact-store namespace of persisted memo entries.
const digestKind = "digest"

// digestRev versions the entry encoding; the store reclaims entries
// written under any other revision.
const digestRev = "repro/digest/v1"

// fileID is a file's stat identity: what must not have moved for a
// recorded digest to still describe the file's bytes.
type fileID struct {
	Dev     uint64 `json:"dev"`
	Ino     uint64 `json:"ino"`
	Size    int64  `json:"size"`
	MtimeNS int64  `json:"mtime_ns"`
	CtimeNS int64  `json:"ctime_ns"`
}

// key is the memo key: the file's device and inode, whichever path
// names it.
func (id fileID) key() string { return fmt.Sprintf("%x-%x", id.Dev, id.Ino) }

// digestEntry is one memo entry, in memory and, JSON-encoded, on disk.
type digestEntry struct {
	fileID
	// SHA256 is HashFile's digest of the file with that identity.
	SHA256 string `json:"sha256"`
	// RecordedNS is the wall-clock time read just before the stat that
	// preceded the hash.
	RecordedNS int64 `json:"recorded_ns"`
}

// trusted reports whether e may stand in for reading a file whose
// current identity is id: the identity is unchanged, the digest is
// well-formed, and both stamps were settled when the entry was
// recorded, so no write since can have left them as they were.
func (e digestEntry) trusted(id fileID) bool {
	return e.fileID == id && isDigest(e.SHA256) &&
		settled(id.MtimeNS, e.RecordedNS) && settled(id.CtimeNS, e.RecordedNS)
}

// settled reports whether stamp lies more than digestMargin before
// recorded, computing the difference without overflow.
func settled(stamp, recorded int64) bool {
	return stamp < recorded && uint64(recorded-stamp) > uint64(digestMargin)
}

// isDigest reports whether s is a digest as HashFile spells it: 64
// lower-case hex digits.
func isDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// DigestStats counts a memo's work.
type DigestStats struct {
	// Hashes counts files read in full by HashFile.
	Hashes uint64
	// Hits counts digests served from a memo entry instead.
	Hits uint64
}

// DigestMemo memoizes HashFile by a file's stat identity, the way
// git's index and ccache's direct mode avoid re-reading unchanged
// files.  An entry holds the identity (device, inode, size, mtime,
// ctime), the digest and the time recorded before the stat; it stands
// in for reading the file only while the identity is unchanged and
// both stamps are more than digestMargin older than that time.  The
// memo re-stats after hashing and records nothing if the identity
// moved meanwhile.
//
// Entries live in memory, so a process reads an unchanged file at most
// once (two first lookups that race may both read it), and, once
// SetPersistent attaches an artifact store, under kind "digest" keyed
// by (device, inode), so processes sharing the store read it once per
// content change.  A missing, corrupt, stale or unwritable entry costs
// a re-hash, never an error or a different digest.  The memo runs only
// on Linux, whose stat fields it reads; elsewhere every call hashes.
type DigestMemo struct {
	now  func() time.Time
	hash func(path string) (string, int64, error) // HashFile; tests interpose on it

	mu    sync.Mutex
	disk  *store.Store
	mem   map[string]digestEntry
	stats DigestStats
}

// NewDigestMemo returns a memo persisting to d (nil keeps entries in
// memory only) that reads recorded times from now.
func NewDigestMemo(d *store.Store, now func() time.Time) *DigestMemo {
	return &DigestMemo{now: now, hash: HashFile, disk: d, mem: make(map[string]digestEntry)}
}

// Digests is the process-wide memo through which exp.CanonicalConfig
// and workload.ExternalProfile take a trace file's digest; the CLI
// attaches its artifact store as the persistent tier.
var Digests = NewDigestMemo(nil, time.Now)

// SetPersistent attaches (nil detaches) the artifact store entries are
// loaded from and written to.
func (m *DigestMemo) SetPersistent(d *store.Store) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.disk = d
}

// Stats returns a snapshot of the memo's counters.
func (m *DigestMemo) Stats() DigestStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// HashFile returns what trace.HashFile returns for path, reading the
// file only when no trusted entry vouches for its current identity.
func (m *DigestMemo) HashFile(path string) (sum string, size int64, err error) {
	recorded := m.now().UnixNano()
	id, ok := statID(path)
	if ok {
		if e, hit := m.lookup(id); hit {
			return e.SHA256, e.Size, nil
		}
	}
	sum, size, err = m.hash(path)
	m.mu.Lock()
	m.stats.Hashes++
	m.mu.Unlock()
	if err != nil || !ok {
		return sum, size, err
	}
	e := digestEntry{fileID: id, SHA256: sum, RecordedNS: recorded}
	if after, ok := statID(path); ok && after == id && size == id.Size && e.trusted(id) {
		m.record(e)
	}
	return sum, size, nil
}

// lookup returns the trusted entry for id from memory or, failing
// that, from the persistent tier.
func (m *DigestMemo) lookup(id fileID) (digestEntry, bool) {
	key := id.key()
	m.mu.Lock()
	e, ok := m.mem[key]
	d := m.disk
	m.mu.Unlock()
	if !ok || !e.trusted(id) {
		if d == nil {
			return digestEntry{}, false
		}
		blob, ok := d.Get(digestKind, key, digestRev)
		e = digestEntry{}
		if !ok || json.Unmarshal(blob, &e) != nil || !e.trusted(id) {
			return digestEntry{}, false
		}
	}
	m.mu.Lock()
	m.mem[key] = e
	m.stats.Hits++
	m.mu.Unlock()
	return e, true
}

// record remembers e in memory and, best effort, in the persistent
// tier: an entry that fails to persist costs the next process a hash.
func (m *DigestMemo) record(e digestEntry) {
	key := e.key()
	m.mu.Lock()
	m.mem[key] = e
	d := m.disk
	m.mu.Unlock()
	if d == nil {
		return
	}
	if blob, err := json.Marshal(e); err == nil {
		_ = d.Put(digestKind, key, digestRev, nil, blob)
	}
}
