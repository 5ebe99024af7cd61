package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/index"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// coreMemoEntries bounds the core memo: 4096 entries of about 450
// bytes each, key and bookkeeping included, keep it under 2 MB.
const coreMemoEntries = 4096

// cores is the process-wide memo every core simulation runs through
// (see runCore).  Tests swap in an empty one to count simulations, or
// to make a run simulate afresh.
var cores = newCoreMemo(coreMemoEntries)

// runCore is the one place a driver runs the out-of-order core: it
// simulates coreCfg over the first n instructions of the benchmark's
// synthetic trace and returns the result.  It runs each (profile, seed,
// n, configuration) once per process: a simulation this process has
// already run, or is running, is served from the memo, so Table 3 reads
// Table 2's simulations and options31 and ablate share Table 2's cells.
// The memo holds only what this process simulated — nothing is
// persisted or read from the artifact store — so `repro all`'s
// integrity resample still simulates.
func runCore(ctx context.Context, prof workload.Profile, seed, n uint64, coreCfg cpu.Config) (cpu.Result, error) {
	if err := ctx.Err(); err != nil {
		return cpu.Result{}, err
	}
	return cores.do(ctx, keyOf(prof, seed, n, coreCfg), func() cpu.Result {
		return cpu.New(coreCfg).Run(&trace.Limit{S: workload.Source(prof, seed), N: n}, n)
	})
}

// A coreKey identifies one core simulation by the digest of its inputs.
type coreKey [sha256.Size]byte

// keyOf returns the key of simulating cfg over the first n instructions
// of prof's trace at seed: the digest of the profile's
// tracestore.ProfileKey, the seed, n and the configuration's canonical
// form, its JSON encoding with each placement — the L1's and a finite
// L2's — replaced by its images of the 64 single-bit block addresses in
// every way.  Every index.Placement is linear over GF(2), and
// index.Compile builds a cache's index tables from exactly these
// images, so configurations with equal keys simulate identically
// however their placements were built.  A nil placement resolves to the
// modulo placement over the implied set count, as cache.New resolves
// it.
func keyOf(prof workload.Profile, seed, n uint64, cfg cpu.Config) coreKey {
	canon := struct {
		Profile  string
		Seed, N  uint64
		Core     cpu.Config // placements and L2 cleared
		L1       [][64]uint64
		L2       *cache.Config // placement cleared
		L2Images [][64]uint64
	}{Profile: tracestore.ProfileKey(prof), Seed: seed, N: n, Core: cfg, L1: placementImages(cfg.Cache)}
	canon.Core.Cache.Placement = nil
	canon.Core.L2 = nil
	if cfg.L2 != nil {
		l2 := *cfg.L2
		canon.L2Images = placementImages(l2)
		l2.Placement = nil
		canon.L2 = &l2
	}
	b, err := json.Marshal(canon)
	if err != nil {
		// What is left is plain data; its encoding cannot fail.
		panic(fmt.Sprintf("experiments: core configuration not encodable: %v", err))
	}
	return coreKey(sha256.Sum256(b))
}

// placementImages returns, for each way of c, the set index its
// placement gives each single-bit block address: the images
// index.Compile builds the way's tables from, way 0's standing for
// every way of a non-skewed placement.
func placementImages(c cache.Config) [][64]uint64 {
	p := c.Placement
	if p == nil {
		p = index.NewModulo(c.SetBits())
	}
	imgs := make([][64]uint64, c.Ways)
	for w := range imgs {
		if w > 0 && !p.Skewed() {
			imgs[w] = imgs[0]
			continue
		}
		for j := range imgs[w] {
			imgs[w][j] = p.SetIndex(1<<uint(j), w)
		}
	}
	return imgs
}

// CoreStats counts core-memo traffic: Simulated is the core
// simulations run, Hits the requests an entry answered instead,
// finished or still running.
type CoreStats struct {
	Simulated, Hits uint64
}

// CoreMemoStats returns the process-wide core memo's counters.
func CoreMemoStats() CoreStats { return cores.stats() }

// coreMemo is a bounded singleflight memo of core results: concurrent
// requests for one key share one simulation, and past its limit the
// oldest entry is evicted first.
type coreMemo struct {
	mu      sync.Mutex
	limit   int
	entries map[coreKey]*coreEntry
	ring    []coreKey // keys in insertion order: a ring of at most limit slots
	next    int       // the slot a full ring overwrites next
	st      CoreStats
}

// coreEntry is one simulation; res is valid once done is closed.
type coreEntry struct {
	done chan struct{}
	res  cpu.Result
}

// newCoreMemo returns an empty memo of at most limit (≥ 1) entries.
func newCoreMemo(limit int) *coreMemo {
	return &coreMemo{limit: limit, entries: make(map[coreKey]*coreEntry)}
}

// do returns k's result, calling sim to produce it unless an entry
// holds it or is producing it.  A caller waiting on another's
// simulation returns early with its own context's error.
func (m *coreMemo) do(ctx context.Context, k coreKey, sim func() cpu.Result) (cpu.Result, error) {
	m.mu.Lock()
	if e, ok := m.entries[k]; ok {
		m.st.Hits++
		m.mu.Unlock()
		select {
		case <-e.done:
			return e.res, nil
		case <-ctx.Done():
			return cpu.Result{}, ctx.Err()
		}
	}
	m.st.Simulated++
	e := &coreEntry{done: make(chan struct{})}
	m.entries[k] = e
	if len(m.ring) < m.limit {
		m.ring = append(m.ring, k)
	} else {
		delete(m.entries, m.ring[m.next])
		m.ring[m.next] = k
		m.next = (m.next + 1) % len(m.ring)
	}
	m.mu.Unlock()
	e.res = sim()
	close(e.done)
	return e.res, nil
}

// stats returns the memo's counters.
func (m *coreMemo) stats() CoreStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st
}
