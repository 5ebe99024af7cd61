package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ReplayConfig configures the trace-replay experiment: one cache
// geometry driven by one trace — an external trace file (-tracefile)
// or a synthetic benchmark (-bench) — optionally split into K time
// shards that simulate in parallel.
type ReplayConfig struct {
	exp.Base
	// Bench is the synthetic benchmark replayed when no trace file is
	// given.
	Bench string `json:"bench" flag:"bench" help:"synthetic benchmark to replay when -tracefile is not set"`
	// Size/Block/Ways are the cache geometry (defaults are the paper's
	// 8 KB, 32 B, 2-way L1).
	Size  int `json:"size" flag:"size" help:"cache size in bytes"`
	Block int `json:"block" flag:"block" help:"block size in bytes"`
	Ways  int `json:"ways" flag:"ways" help:"associativity"`
	// Scheme is the index scheme (a2, a2-Hx, a2-Hx-Sk, a2-Hp, a2-Hp-Sk).
	Scheme string `json:"scheme" flag:"scheme" help:"index scheme: a2, a2-Hx, a2-Hx-Sk, a2-Hp, a2-Hp-Sk"`
	// AddrBits is the address width feeding the hash schemes.
	AddrBits int `json:"addrbits" flag:"addrbits" help:"address bits feeding hash schemes"`
	// TimeShards splits the trace into K contiguous time ranges
	// simulated in parallel, each on its own cache copy warmed on the
	// tail of its predecessor's range; per-shard statistics are summed
	// in time order.  1 replays sequentially (the reference result).
	TimeShards int `json:"timeshards" flag:"timeshards" help:"parallel time shards (1 = sequential reference replay)"`
	// Warmup is the number of records each shard after the first
	// replays, statistics off, before its own range; 0 picks the
	// default.  A longer window narrows the gap to the sequential
	// replay, but on skewed schemes filling every cache set need not
	// close it: gcc's 200,000 default records at 8 shards on a2-Hp-Sk
	// miss 80,608 times where the sequential replay misses 80,599.
	Warmup uint64 `json:"warmup" flag:"warmup" help:"warm-up records per shard before its live range (0 = default 65536)"`
}

// DefaultReplayWarmup is the warm-up window applied when Warmup is 0.
// It refills every set of any geometry this repo sweeps many times
// over, which does not make sharded counters exact: skewed schemes can
// still differ from the sequential replay (see ReplayConfig.Warmup).
const DefaultReplayWarmup = 1 << 16

// DefaultReplayConfig returns the paper's L1 geometry at the standard
// scale.
func DefaultReplayConfig() ReplayConfig {
	return ReplayConfig{
		Base:   exp.DefaultBase(),
		Bench:  "tomcatv",
		Size:   8 << 10,
		Block:  32,
		Ways:   2,
		Scheme: string(index.SchemeIPolySk),

		AddrBits:   19,
		TimeShards: 1,
		Warmup:     DefaultReplayWarmup,
	}
}

// Validate rejects impossible geometries and unknown schemes with a
// usage error instead of a runtime panic.  A zero field stands for its
// default, so the geometry checked is the normalized one.
func (c *ReplayConfig) Validate() error {
	n := withDefaults(*c, DefaultReplayConfig)
	if err := cache.CheckGeometry(n.Size, n.Block, n.Ways); err != nil {
		return err
	}
	if _, err := n.placement(); err != nil {
		return err
	}
	if n.TimeShards < 1 || n.TimeShards > 4096 {
		return fmt.Errorf("timeshards must be in [1, 4096] (got %d)", n.TimeShards)
	}
	return nil
}

// placement builds the configured index placement.
func (c ReplayConfig) placement() (index.Placement, error) {
	setBits := cache.Config{Size: c.Size, BlockSize: c.Block, Ways: c.Ways}.SetBits()
	blockBits := 0
	for b := c.Block; b > 1; b >>= 1 {
		blockBits++
	}
	return index.New(index.Scheme(c.Scheme), setBits, c.Ways, c.AddrBits-blockBits)
}

// ReplayResult is the merged replay outcome.
type ReplayResult struct {
	// Trace names what was replayed: the trace file's base name, or the
	// synthetic benchmark.
	Trace string
	// Format is the sniffed trace encoding ("din", "native+gzip", ...)
	// or "synthetic".
	Format string
	// SHA256 is the trace file's content hash ("" for synthetic runs).
	SHA256 string
	// Records is the number of memory records replayed live (warm-up
	// excluded); shard live ranges partition exactly this count.
	Records uint64
	// Shards and Warmup echo the sharding actually used.
	Shards int
	Warmup uint64
	// Stats is the sum of the per-shard cache statistics in time order.
	Stats cache.Stats
	// ErrorBound is meant to bound |sharded − sequential| for every
	// miss/hit counter: (Shards−1) × cache lines, the worst case when
	// warm-up leaves every line of every later shard's cache
	// unconverged.  It is not proven for skewed schemes, whose warmed
	// state can differ from the sequential one for a whole shard.
	ErrorBound uint64
}

// replayShard simulates records [lo, hi) on a fresh cache, first
// replaying up to cfg.Warmup records preceding lo with statistics
// discarded, so the cache state entering the live range approximates
// the state a sequential replay would carry in.  Refilling every set
// does not make the two equal: a cold skewed cache fills the first
// invalid way where the sequential one evicts its LRU candidate, and
// blocks no later record touches can differ for good.
func replayShard(ctx context.Context, cfg ReplayConfig, prof workload.Profile, lo, hi uint64) (cache.Stats, error) {
	place, err := cfg.placement()
	if err != nil {
		return cache.Stats{}, err
	}
	c := cache.New(cache.Config{
		Size: cfg.Size, BlockSize: cfg.Block, Ways: cfg.Ways,
		Placement: place, WriteAllocate: false,
	})
	replay := func(recs []trace.Rec) {
		for i := range recs {
			c.Access(recs[i].Addr, recs[i].Op == trace.OpStore)
		}
	}
	warmLo := lo
	if cfg.Warmup < lo {
		warmLo = lo - cfg.Warmup
	} else {
		warmLo = 0
	}
	if warmLo < lo {
		if err := runRange(ctx, prof, cfg.Seed, cfg.Instructions, warmLo, lo, replay); err != nil {
			return cache.Stats{}, err
		}
		c.ResetStats()
	}
	if err := runRange(ctx, prof, cfg.Seed, cfg.Instructions, lo, hi, replay); err != nil {
		return cache.Stats{}, err
	}
	return c.Stats(), nil
}

// sumStats adds per-shard counters field by field; with shard ranges
// partitioning the trace, the sum is the merged whole-trace view.
func sumStats(all []cache.Stats) cache.Stats {
	var t cache.Stats
	for _, s := range all {
		t.Accesses += s.Accesses
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.ReadHits += s.ReadHits
		t.ReadMisses += s.ReadMisses
		t.WriteHits += s.WriteHits
		t.WriteMiss += s.WriteMiss
		t.Evictions += s.Evictions
		t.Writebacks += s.Writebacks
		t.Invalidates += s.Invalidates
		t.Fills += s.Fills
	}
	return t
}

// RunReplayCtx resolves the trace, splits it into TimeShards contiguous
// ranges, simulates the shards on the parallel engine and merges their
// statistics in time order.  Sharded counters approximate the
// sequential replay and are not exact in general: see ErrorBound, which
// is not proven for skewed schemes.  replay_test pins K = 1/2/8
// byte-identical only where the warm-up window covers each shard's
// whole prefix, so every shard starts from the sequential state.
func RunReplayCtx(ctx context.Context, cfg ReplayConfig) (ReplayResult, error) {
	cfg = withDefaults(cfg, DefaultReplayConfig)
	var res ReplayResult

	var prof workload.Profile
	if cfg.TraceFile != "" {
		p, err := workload.ExternalProfile(cfg.TraceFile)
		if err != nil {
			return res, err
		}
		prof = p
		res.SHA256 = p.External.SHA256
		f, err := trace.OpenFile(cfg.TraceFile)
		if err != nil {
			return res, err
		}
		res.Format = f.Info.String()
		f.Close()
	} else {
		p, ok := workload.ByName(cfg.Bench)
		if !ok {
			return res, fmt.Errorf("replay: unknown benchmark %q (see `repro list`)", cfg.Bench)
		}
		prof = p
		res.Format = "synthetic"
	}
	res.Trace = prof.Name

	n, err := traceLen(ctx, prof, cfg.Seed, cfg.Instructions)
	if err != nil {
		return res, err
	}
	res.Records = n

	shards := cfg.TimeShards
	if uint64(shards) > n && n > 0 {
		shards = int(n)
	}
	if n == 0 {
		shards = 1
	}
	res.Shards = shards
	res.Warmup = cfg.Warmup
	res.ErrorBound = uint64(shards-1) * uint64(cfg.Size/cfg.Block)

	jobs := make([]func(context.Context) (cache.Stats, error), 0, shards)
	for k := 0; k < shards; k++ {
		lo := uint64(k) * n / uint64(shards)
		hi := uint64(k+1) * n / uint64(shards)
		jobs = append(jobs, func(c context.Context) (cache.Stats, error) {
			return replayShard(c, cfg, prof, lo, hi)
		})
	}
	per, err := runner.All(ctx, jobs)
	if err != nil {
		return res, err
	}
	res.Stats = sumStats(per)
	return res, nil
}

// report renders the merged statistics plus the provenance and the
// warm-up error model.
func (res ReplayResult) report(cfg ReplayConfig) *exp.Report {
	rep := &exp.Report{}
	t := exp.NewTable("replay",
		fmt.Sprintf("trace replay: %dB %d-way %dB-line cache, scheme %s", cfg.Size, cfg.Ways, cfg.Block, cfg.Scheme),
		exp.StrCol("trace"), exp.StrCol("format"), exp.IntCol("records"),
		exp.IntCol("accesses"), exp.IntCol("misses"),
		exp.FloatCol("miss%", ""), exp.FloatCol("load miss%", ""))
	t.AddRow(res.Trace, res.Format, res.Records,
		res.Stats.Accesses, res.Stats.Misses,
		100*res.Stats.MissRatio(), 100*res.Stats.ReadMissRatio())
	rep.AddTable(t)
	if res.SHA256 != "" {
		rep.Notef("trace file sha256 %s", res.SHA256)
	}
	if res.Shards > 1 {
		rep.Notef("time-sharded replay: %d shards, %d warm-up records each; counters are exact once each warm-up window refills every set, and within ±%d of the sequential replay otherwise ((shards-1) x %d cache lines)",
			res.Shards, res.Warmup, res.ErrorBound, cfg.Size/cfg.Block)
	} else {
		rep.Notef("sequential replay (timeshards 1)")
	}
	return rep
}
