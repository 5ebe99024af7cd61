package cli

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/store"
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
	// traceBase snapshots the process-wide trace-store counters when the
	// persistent tier is installed, so traceDelta reports this
	// invocation's disk traffic even when earlier in-process runs (tests)
	// already moved the cumulative counters.
	traceBase tracestore.Stats
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

// open opens the content-addressed store behind both caching layers —
// experiment reports (the returned result cache, which the caller
// hands to exp.RunWith) and packed memory traces (installed as
// tracestore's persistent tier) — and returns the result cache plus a
// teardown restoring the uncached process state.  With -no-cache, or
// if the directory cannot be opened (reported as a warning: a broken
// cache must never fail a run), it installs nothing and returns nil.
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
	o.traceBase = tracestore.Default.Stats()
	return exp.NewResultCache(d), func() { tracestore.Default.SetPersistent(nil) }
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

// cacheStatsLine formats the end-of-run cache summary for stderr —
// stderr so `repro all -json` stdout stays byte-identical cold vs warm.
// ts is the packed-trace tier's traffic for the same invocation: disk
// hits are trace materializations served from the artifact store
// instead of regenerated, disk puts the traces persisted for the next.
// ds is the underlying artifact store's own counters, rendered by the
// shared store.Stats.Line formatter that /v1/stats reuses.
func cacheStatsLine(st exp.CacheStats, ts tracestore.Stats, ds store.Stats) string {
	line := fmt.Sprintf("repro all: cache %d hits, %d misses, %d stored", st.Hits, st.Misses, st.Writes)
	switch {
	case st.Resampled == "":
		line += "; integrity resample: not cached"
	case st.ResampleOK:
		line += fmt.Sprintf("; integrity resample %s: ok", st.Resampled)
	default:
		line += fmt.Sprintf("; integrity resample %s: DIVERGED", st.Resampled)
	}
	line += fmt.Sprintf("; traces: %d disk hits, %d disk puts", ts.DiskHits, ts.DiskPuts)
	line += "; " + ds.Line()
	return line
}
