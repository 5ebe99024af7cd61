package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// geometry is one replayed cache: the replay experiment's -scheme,
// -size and -ways (32-byte blocks, 19 address bits, as its defaults).
type geometry struct {
	name   string
	scheme string
	size   int
	ways   int
}

// setupGeometry is the replay experiment's default geometry, replayed
// cold as the replay workload's set-up.
var setupGeometry = geometry{"a2-Hp-Sk", "a2-Hp-Sk", 8 << 10, 2}

// replayGeometries are the timed replays: every one differs from the
// set-up geometry, so each is a result-cache miss but a packed-trace
// disk hit.  They span the plain, XOR-skewed and I-Poly engines, a
// larger cache and a wider one.
var replayGeometries = []geometry{
	{"a2", "a2", 8 << 10, 2},
	{"a2-Hx-Sk", "a2-Hx-Sk", 8 << 10, 2},
	{"a2-Hp-Sk-16k", "a2-Hp-Sk", 16 << 10, 2},
	{"a2-Hp-4w", "a2-Hp", 8 << 10, 4},
}

// newCache builds g exactly as the replay experiment does.
func (g geometry) newCache() (*cache.Cache, error) {
	const block, addrBits, blockBits = 32, 19, 5
	setBits := cache.Config{Size: g.size, BlockSize: block, Ways: g.ways}.SetBits()
	place, err := index.New(index.Scheme(g.scheme), setBits, g.ways, addrBits-blockBits)
	if err != nil {
		return nil, err
	}
	return cache.New(cache.Config{Size: g.size, BlockSize: block, Ways: g.ways, Placement: place}), nil
}

// replayCachedPerSecond is how many result-cache reruns the replay
// workload runs per --seconds.
const replayCachedPerSecond = 8

// replayRecords is the fixture length: 10M records at the default
// 10-second scale.
func (b *bench) replayRecords() uint64 { return 1_000_000 * uint64(b.seconds) }

// fixture returns the replay workload's input trace, writing it on
// first use: the first records memory records of the synthetic gcc
// benchmark generated from the workload seed, as gzipped din.  Files
// are cached under .bench_build/fixtures by (seed, records).
func (b *bench) fixture(records uint64) (string, error) {
	path := filepath.Join(b.build, "fixtures", fmt.Sprintf("gcc-seed%d-n%d.din.gz", b.seed, records))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	prof, ok := workload.ByName("gcc")
	if !ok {
		return "", fmt.Errorf("fixture: no gcc profile")
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp)
	// BestSpeed: Go's default level spends 14 s compressing 10M records
	// on the reference host; decoding costs the same at either level.
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return "", err
	}
	dw := trace.NewDinWriter(zw)
	src := &trace.Limit{S: &trace.MemOnly{S: workload.Source(prof, b.seed)}, N: records}
	buf := make([]trace.Rec, tracestore.ChunkLen)
	for err == nil {
		k, eof := src.ReadChunk(buf)
		err = dw.WriteChunk(buf[:k])
		if eof {
			break
		}
	}
	if err := firstErr(err, dw.Flush(), zw.Close(), f.Close()); err != nil {
		return "", err
	}
	return path, os.Rename(tmp, path)
}

// scan is one direct replay of the fixture through cache.Cache, with
// decode and each geometry's access loop timed separately.
type scan struct {
	records uint64
	decode  time.Duration
	stats   []cache.Stats
	access  []time.Duration
}

// scanFixture decodes path once and feeds every record to one
// cache.Cache per geometry, as the replay experiment's shards do.
// Decoding runs on its own goroutine, a few chunks ahead of the caches.
func scanFixture(path string, geoms []geometry) (scan, error) {
	s := scan{stats: make([]cache.Stats, len(geoms)), access: make([]time.Duration, len(geoms))}
	caches := make([]*cache.Cache, len(geoms))
	for i, g := range geoms {
		c, err := g.newCache()
		if err != nil {
			return s, err
		}
		caches[i] = c
	}
	t0 := time.Now()
	f, err := trace.OpenFile(path)
	if err != nil {
		return s, err
	}
	defer f.Close()
	s.decode += time.Since(t0)
	const ring = 4
	free := make(chan []trace.Rec, ring) // the ring of chunk buffers
	full := make(chan []trace.Rec, ring)
	for i := 0; i < ring; i++ {
		free <- make([]trace.Rec, tracestore.ChunkLen)
	}
	go func() {
		defer close(full)
		for {
			buf := <-free
			t0 := time.Now()
			k, eof := f.ReadChunk(buf)
			s.decode += time.Since(t0)
			full <- buf[:k]
			if eof {
				return
			}
		}
	}()
	for recs := range full {
		for i, c := range caches {
			t0 := time.Now()
			for j := range recs {
				c.Access(recs[j].Addr, recs[j].Op == trace.OpStore)
			}
			s.access[i] += time.Since(t0)
		}
		s.records += uint64(len(recs))
		free <- recs[:cap(recs)]
	}
	if err := f.Err(); err != nil {
		return s, err
	}
	for i, c := range caches {
		s.stats[i] = c.Stats()
	}
	return s, nil
}

// replayCounts is what a replay report states.
type replayCounts struct {
	records, accesses, misses uint64
	bound                     uint64 // the printed ± bound (0 when sequential)
}

var boundRE = regexp.MustCompile(`within ±(\d+) of the sequential replay`)

func parseReplay(out []byte) (replayCounts, error) {
	var rep struct {
		Tables []struct {
			Name    string `json:"name"`
			Columns []struct {
				Name string  `json:"name"`
				Ints []int64 `json:"ints"`
			} `json:"columns"`
		} `json:"tables"`
		Notes []string `json:"notes"`
	}
	var c replayCounts
	if err := json.Unmarshal(out, &rep); err != nil {
		return c, fmt.Errorf("replay report: %v", err)
	}
	found := 0
	for _, t := range rep.Tables {
		if t.Name != "replay" {
			continue
		}
		for _, col := range t.Columns {
			if len(col.Ints) != 1 {
				continue
			}
			switch col.Name {
			case "records":
				c.records, found = uint64(col.Ints[0]), found+1
			case "accesses":
				c.accesses, found = uint64(col.Ints[0]), found+1
			case "misses":
				c.misses, found = uint64(col.Ints[0]), found+1
			}
		}
	}
	if found != 3 {
		return c, fmt.Errorf("replay report: no replay table with records/accesses/misses")
	}
	for _, n := range rep.Notes {
		if m := boundRE.FindStringSubmatch(n); m != nil {
			c.bound, _ = strconv.ParseUint(m[1], 10, 64)
		}
	}
	return c, nil
}

func (b *bench) replayArgs(fx string, g geometry, k int, dir string) []string {
	return []string{"replay", "-json", "-tracefile", fx,
		"-instructions", strconv.FormatUint(b.replayRecords(), 10),
		"-seed", strconv.FormatUint(b.seed, 10),
		"-scheme", g.scheme, "-size", strconv.Itoa(g.size), "-ways", strconv.Itoa(g.ways),
		"-timeshards", strconv.Itoa(k), "-cache-dir", dir}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// replay runs the external-trace workload: a cold replay of the fixture
// into an empty store as set-up, the geometry replays at K=1 and
// K=nproc time shards as the timed job, and reruns of those replays
// (result-cache hits) as the fast-path ops.
func (b *bench) replay(ctx context.Context) (*outcome, error) {
	o := &outcome{}
	records := b.replayRecords()
	fx, err := b.fixture(records)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	settle() // a freshly written fixture must not be written back during set-up
	sum, _, err := trace.HashFile(fx)
	if err != nil {
		return nil, err
	}
	direct, err := scanFixture(fx, append([]geometry{setupGeometry}, replayGeometries...))
	if err != nil {
		return nil, fmt.Errorf("direct replay: %w", err)
	}
	if direct.records != records {
		return nil, fmt.Errorf("fixture holds %d records, want %d", direct.records, records)
	}
	// want checks one report against the direct replay of geometry i
	// (0 is the set-up geometry).
	want := func(what string, c replayCounts, i int) error {
		d := direct.stats[i]
		if c.records != records || c.accesses != d.Accesses || c.misses != d.Misses {
			return fmt.Errorf("%s: records/accesses/misses %d/%d/%d, direct cache.Cache replay %d/%d/%d",
				what, c.records, c.accesses, c.misses, records, d.Accesses, d.Misses)
		}
		return nil
	}

	type config struct {
		g    geometry
		gi   int // index into direct.stats
		k    int
		body []byte // round 0's report
	}
	var configs []*config
	for gi, g := range replayGeometries {
		for _, k := range []int{1, b.nproc} {
			configs = append(configs, &config{g: g, gi: gi + 1, k: k})
		}
	}
	var walls, k1s, kns []float64
	var diff uint64
	for r := 0; r < rounds && ctx.Err() == nil; r++ {
		dir := b.dir("replay-store")
		p := b.exec(fmt.Sprintf("setup-%d", r), b.replayArgs(fx, setupGeometry, 1, dir)...)
		o.peak(r, p.rssMB)
		err := p.err
		if err == nil {
			var c replayCounts
			if c, err = parseReplay(b.tampered("replay.setup", p.stdout)); err == nil {
				err = want("cold replay", c, 0)
			}
		}
		b.count(err)
		o.setup = append(o.setup, p.wall.Seconds())
		settle()

		o.calib = append(o.calib, calibrate(20))
		var k1, kn time.Duration
		var base replayCounts
		reruns := share(replayCachedPerSecond*b.seconds, r)
		for j, c := range configs {
			p := b.exec(fmt.Sprintf("replay-%d-%s-k%d", r, c.g.name, c.k), b.replayArgs(fx, c.g, c.k, dir)...)
			o.peak(r, p.rssMB)
			o.cpu += p.cpu
			o.cpuWall += p.wall
			if c.k == 1 {
				k1 += p.wall
			} else {
				kn += p.wall
			}
			err := p.err
			var n replayCounts
			if err == nil {
				n, err = parseReplay(b.tampered("replay.timed", p.stdout))
			}
			what := fmt.Sprintf("replay %s K=%d, round %d", c.g.name, c.k, r)
			switch {
			case err != nil:
			case c.body != nil && !bytes.Equal(p.stdout, c.body):
				err = fmt.Errorf("%s: report differs from round 0's", what)
			case c.k == 1:
				base = n
				err = want(what, n, c.gi)
			default:
				// The sharded counters may differ from K=1 within the
				// report's own bound; the difference is recorded, not
				// asserted zero.
				if r == 0 {
					diff += absDiff(n.accesses, base.accesses) + absDiff(n.misses, base.misses)
				}
				if n.records != records || n.accesses != base.accesses || absDiff(n.misses, base.misses) > n.bound {
					err = fmt.Errorf("%s: accesses/misses %d/%d outside ±%d of K=1's %d/%d",
						what, n.accesses, n.misses, n.bound, base.accesses, base.misses)
				}
			}
			if c.body == nil {
				c.body = p.stdout
			}
			b.count(err)

			// This replay's reruns, result-cache hits, follow it, so the
			// fast-path ops spread over the whole timed phase.
			for i := reruns * j / len(configs); i < reruns*(j+1)/len(configs); i++ {
				p := b.exec(fmt.Sprintf("cached-%d-%s-k%d-%d", r, c.g.name, c.k, i), b.replayArgs(fx, c.g, c.k, dir)...)
				o.fast = append(o.fast, ms(p.wall))
				o.peak(r, p.rssMB)
				err := p.err
				if err == nil && !bytes.Equal(b.tampered("replay.cached", p.stdout), c.body) {
					err = fmt.Errorf("cached replay %s K=%d: report differs from the first run's", c.g.name, c.k)
				}
				b.count(err)
			}
		}
		walls = append(walls, (k1 + kn).Seconds())
		k1s = append(k1s, k1.Seconds())
		kns = append(kns, kn.Seconds())
	}
	o.wall = median(walls)

	o.fig("setup_s", median(o.setup), "s", fmt.Sprintf("median of %d cold replays of the %d-record fixture, sha256 %s", len(o.setup), records, sum))
	o.fig("replay_k1_s", median(k1s), "s", fmt.Sprintf("%d geometry replays at -timeshards 1, median of %d rounds", len(replayGeometries), len(k1s)))
	o.fig("replay_kn_s", median(kns), "s", fmt.Sprintf("the same replays at -timeshards %d", b.nproc))
	o.fig("cached_p50_ms", quantile(o.fast, 0.5), "ms", fmt.Sprintf("median of %d reruns served from the result cache", len(o.fast)))
	o.fig("cached_p75_ms", quantile(o.fast, 0.75), "ms", "")
	o.fig("shard_counter_diff", float64(diff), "count", "sum of |K=n - K=1| over accesses and misses")
	o.fig("peak_rss_mb", median(o.rss), "MB", "per round the largest max-RSS of any replay process, median over rounds")
	return o, ctx.Err()
}
