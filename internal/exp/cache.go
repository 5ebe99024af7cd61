package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/store"
	"repro/internal/trace"
)

// ReportKind is the artifact-store namespace for cached experiment
// reports.
const ReportKind = "report"

// resultKeySchema versions the key derivation itself: the byte layout
// hashed by ReportKey.  Bump it if the derivation changes (fields
// added, separator changed), so old entries can never alias new keys.
const resultKeySchema = "repro/result-key/v1"

// CanonicalConfig returns the canonical JSON encoding of cfg used for
// content addressing: the experiment's normalization applied (so a zero
// field and its explicit default hash identically) and keys emitted in
// sorted order.  Numbers pass through json.Number, so uint64 seeds
// survive exactly.
func CanonicalConfig(e Experiment, cfg Config) ([]byte, error) {
	if e.Norm != nil {
		cfg = e.Norm(cfg)
	}
	typed, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: marshal config: %w", e.Name, err)
	}
	dec := json.NewDecoder(bytes.NewReader(typed))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: canonicalize config: %w", e.Name, err)
	}
	// A trace-file path is a location, not content.  Key by the file's
	// bytes instead, so a moved or renamed trace hits the same cached
	// report and an edited one misses — a path key would serve stale
	// results after the file changed underneath it.
	if tf, ok := m["tracefile"].(string); ok && tf != "" {
		sum, _, err := trace.HashFile(tf)
		if err != nil {
			return nil, fmt.Errorf("%s: tracefile: %w", e.Name, err)
		}
		m["tracefile"] = "sha256:" + sum
	}
	return json.Marshal(m) // map keys marshal in sorted order
}

// ReportKey derives the content address of an experiment result: a hex
// sha256 over the key-derivation schema, the experiment name and the
// canonical config.  Code-version invalidation lives in ReportRev, not
// here, so a revision bump reclaims stale entries in place instead of
// orphaning them.
func ReportKey(e Experiment, cfg Config) (string, error) {
	canon, err := CanonicalConfig(e, cfg)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(resultKeySchema))
	h.Write([]byte{0})
	h.Write([]byte(e.Name))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ReportRev is the code-version tag stored alongside a cached report:
// the Report wire schema plus the experiment's result-schema revision.
// Either bump reads as a store-level rev mismatch, which degrades to a
// clean recompute.
func ReportRev(e Experiment) string {
	return fmt.Sprintf("%s+rev%d", ReportSchema, e.Rev)
}

// CacheStats is one invocation's result-cache activity, rendered by the
// CLI's cache-stats line.
type CacheStats struct {
	// Hits counts reports served from the store.
	Hits uint64 `json:"hits"`
	// Misses counts reports that had to be simulated.
	Misses uint64 `json:"misses"`
	// Writes counts fresh reports persisted to the store.
	Writes uint64 `json:"writes"`
	// Resampled names the experiment re-simulated as the integrity
	// check, or "" if the verify target was never served from cache.
	Resampled string `json:"resampled,omitempty"`
	// ResampleOK reports whether the resample matched byte-for-byte.
	ResampleOK bool `json:"resample_ok,omitempty"`
}

// ResultCache serves experiment reports from a content-addressed
// artifact store, keyed by ReportKey and guarded by ReportRev.  One
// experiment per invocation can be designated (SetVerify) for an
// integrity resample: when its report is served from cache it is also
// re-simulated and byte-compared, turning silent cache divergence into
// a loud error.
type ResultCache struct {
	disk *store.Store

	mu       sync.Mutex
	verify   string
	verified bool
	stats    CacheStats
}

// NewResultCache wraps an open artifact store.
func NewResultCache(d *store.Store) *ResultCache {
	return &ResultCache{disk: d}
}

// SetVerify designates the experiment whose next cache hit triggers
// the integrity resample.
func (c *ResultCache) SetVerify(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.verify = name
	c.verified = false
}

// Stats returns a snapshot of the cache activity so far.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// StoreStats returns the underlying artifact store's traffic counters —
// the raw store-level view beneath this cache's report-level Stats,
// shared by the CLI's end-of-run stats line and the service's
// /v1/stats endpoint.
func (c *ResultCache) StoreStats() store.Stats {
	return c.disk.Stats()
}

// Cached consults the store for an already-computed report of (e, cfg)
// without ever simulating: the fast path a service probes before
// enqueueing a job.  A verified hit counts toward Stats like any other
// served report; a miss leaves the counters alone (the run that follows
// accounts for itself).  The integrity-resample designation is not
// consumed here — probes must stay cheap and side-effect-free.
func (c *ResultCache) Cached(e Experiment, cfg Config) (*Report, bool) {
	key, err := ReportKey(e, cfg)
	if err != nil {
		return nil, false
	}
	blob, ok := c.disk.Get(ReportKind, key, ReportRev(e))
	if !ok {
		return nil, false
	}
	rep, ok := decodeCached(e, blob)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	c.stats.Hits++
	c.mu.Unlock()
	return rep, true
}

// run is the cached counterpart of runFresh: consult the store, fall
// back to simulation, persist what was computed.
func (c *ResultCache) run(ctx context.Context, e Experiment, cfg Config) (*Report, error) {
	key, err := ReportKey(e, cfg)
	if err != nil {
		// Unhashable config (should not happen for registered
		// experiments): degrade to an uncached run.
		return runFresh(ctx, e, cfg)
	}
	rev := ReportRev(e)
	if blob, ok := c.disk.Get(ReportKind, key, rev); ok {
		if rep, ok := decodeCached(e, blob); ok {
			if c.takeVerify(e.Name) {
				return c.resample(ctx, e, cfg, key, blob)
			}
			c.mu.Lock()
			c.stats.Hits++
			c.mu.Unlock()
			return rep, nil
		}
		// Decoded garbage despite an intact blob: a client-level schema
		// drift the store cannot see.  Fall through and recompute.
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	rep, err := runFresh(ctx, e, cfg)
	if err != nil {
		return nil, err
	}
	if blob, err := json.Marshal(rep); err == nil {
		meta := map[string]string{
			"experiment":   e.Name,
			"instructions": fmt.Sprint(rep.Instructions),
			"seed":         fmt.Sprint(rep.Seed),
		}
		if c.disk.Put(ReportKind, key, rev, meta, blob) == nil {
			c.mu.Lock()
			c.stats.Writes++
			c.mu.Unlock()
		}
	}
	return rep, nil
}

// takeVerify claims the one-shot integrity resample for name.
func (c *ResultCache) takeVerify(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.verified || name != c.verify {
		return false
	}
	c.verified = true
	return true
}

// resample re-simulates a cache hit and byte-compares the fresh
// report's encoding against the cached blob.  A mismatch is a hard
// error: either the store served wrong bytes past its own hash check,
// or the simulation is no longer deterministic — both must fail loudly.
func (c *ResultCache) resample(ctx context.Context, e Experiment, cfg Config, key string, cached []byte) (*Report, error) {
	rep, err := runFresh(ctx, e, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: integrity resample failed to run: %w", e.Name, err)
	}
	fresh, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("%s: integrity resample encode: %w", e.Name, err)
	}
	ok := bytes.Equal(fresh, cached)
	c.mu.Lock()
	c.stats.Resampled = e.Name
	c.stats.ResampleOK = ok
	if ok {
		c.stats.Hits++
	}
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%s: integrity resample diverged: cached report %s does not match a fresh simulation — discard the cache directory and re-run", e.Name, key)
	}
	return rep, nil
}

// decodeCached decodes a cached report blob and checks its identity
// fields against the experiment being served.
func decodeCached(e Experiment, blob []byte) (*Report, bool) {
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, false
	}
	if rep.Schema != ReportSchema || rep.Experiment != e.Name {
		return nil, false
	}
	return &rep, true
}
