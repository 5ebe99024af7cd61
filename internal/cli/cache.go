package cli

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// DefaultCacheDir is the default artifact-store directory, relative to
// the working directory (it is gitignored at the repo root).
const DefaultCacheDir = ".repro-cache"

// cacheOptions carries the cache flags shared by every experiment
// subcommand: where the content-addressed artifact store lives and
// whether to bypass it entirely.
type cacheOptions struct {
	dir string
	off bool
	// traceBase and digestBase snapshot the process-wide trace-store and
	// digest-memo counters when the persistent tiers are installed, so
	// traceDelta and digestDelta report this invocation's traffic even
	// when earlier in-process runs (tests) already moved the cumulative
	// counters.
	traceBase  tracestore.Stats
	digestBase trace.DigestStats
}

// addCacheFlags registers -cache-dir and -no-cache on fs.
func addCacheFlags(fs *flag.FlagSet) *cacheOptions {
	o := &cacheOptions{}
	fs.StringVar(&o.dir, "cache-dir", DefaultCacheDir,
		"artifact store directory for incremental runs (traces and reports)")
	fs.BoolVar(&o.off, "no-cache", false,
		"bypass the artifact store: simulate everything fresh and persist nothing")
	return o
}

// open opens the content-addressed store behind the three caching
// layers — experiment reports (the returned result cache, which the
// caller hands to exp.RunWith), packed memory traces (installed as
// tracestore's persistent tier) and trace-file digests (installed as
// the digest memo's) — and returns the result cache plus a teardown
// restoring the uncached process state.  With -no-cache, or if the
// directory cannot be opened (reported as a warning: a broken cache
// must never fail a run), it installs nothing and returns nil.
func (o *cacheOptions) open(stderr io.Writer) (*exp.ResultCache, func()) {
	if o.off {
		return nil, func() {}
	}
	d, err := store.Open(o.dir, store.DefaultMaxBytes)
	if err != nil {
		fmt.Fprintf(stderr, "repro: cache disabled: %v\n", err)
		return nil, func() {}
	}
	tracestore.Default.SetPersistent(d)
	trace.Digests.SetPersistent(d)
	o.traceBase = tracestore.Default.Stats()
	o.digestBase = trace.Digests.Stats()
	return exp.NewResultCache(d), func() {
		tracestore.Default.SetPersistent(nil)
		trace.Digests.SetPersistent(nil)
	}
}

// traceDelta returns the trace store's disk traffic since open().
func (o *cacheOptions) traceDelta() tracestore.Stats {
	st := tracestore.Default.Stats()
	st.Hits -= o.traceBase.Hits
	st.Misses -= o.traceBase.Misses
	st.Generations -= o.traceBase.Generations
	st.Streamed -= o.traceBase.Streamed
	st.DiskHits -= o.traceBase.DiskHits
	st.DiskPuts -= o.traceBase.DiskPuts
	return st
}

// digestDelta returns the digest memo's work since open().
func (o *cacheOptions) digestDelta() trace.DigestStats {
	st := trace.Digests.Stats()
	st.Hashes -= o.digestBase.Hashes
	st.Hits -= o.digestBase.Hits
	return st
}

// cacheStatsLine formats the end-of-run cache summary for stderr —
// stderr so `-json` stdout stays byte-identical cold vs warm.  cmd
// prefixes it ("repro all"), and resample says whether the invocation
// designated an integrity-resample target, whose outcome the line then
// reports.  ts is the packed-trace tier's traffic for the same
// invocation: disk hits are trace materializations served from the
// artifact store instead of regenerated, disk puts the traces persisted
// for the next.  dg is the digest memo's: trace files read in full to
// hash them, and digests served from a memo entry instead.  ds is the
// underlying artifact store's own counters, rendered by the shared
// store.Stats.Line formatter that /v1/stats reuses.
func cacheStatsLine(cmd string, resample bool, st exp.CacheStats, ts tracestore.Stats, dg trace.DigestStats, ds store.Stats) string {
	line := fmt.Sprintf("%s: cache %d hits, %d misses, %d stored", cmd, st.Hits, st.Misses, st.Writes)
	switch {
	case !resample: // no target, no clause
	case st.Resampled == "":
		line += "; integrity resample: not cached"
	case st.ResampleOK:
		line += fmt.Sprintf("; integrity resample %s: ok", st.Resampled)
	default:
		line += fmt.Sprintf("; integrity resample %s: DIVERGED", st.Resampled)
	}
	line += fmt.Sprintf("; traces: %d disk hits, %d disk puts", ts.DiskHits, ts.DiskPuts)
	line += fmt.Sprintf("; digests: %d hashed, %d memo hits", dg.Hashes, dg.Hits)
	line += "; " + ds.Line()
	return line
}
