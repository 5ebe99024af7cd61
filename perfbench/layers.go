package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/stackdist"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// layerRecords is the length of the gcc memory trace the engine-level
// layers (pack, unpack, broadcast, Grid, stackdist) are timed on: long
// enough that per-record figures do not depend on set-up.
func (b *bench) layerRecords() uint64 { return 100_000 * uint64(b.seconds) }

// suite is the traced run's per-layer pass: it times calls into each
// layer's public functions on the seeded inputs of all three workloads,
// each call under a span whose op names the layer.
type suite struct {
	b    *bench
	root int
	m    map[string]metric
}

func (s *suite) put(name string, v float64, unit string) { s.m[name] = metric{v, unit} }

// timed runs fn under a span and returns its wall time.
func (s *suite) timed(layer, name string, fn func() error) (time.Duration, error) {
	sp := s.b.tr.begin("layers/"+layer, name, s.root)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.b.tr.end(sp)
	if err != nil {
		err = fmt.Errorf("%s: %s: %w", layer, name, err)
	}
	return d, err
}

// medianOf times fn reps times under spans and returns the median.
func (s *suite) medianOf(reps int, layer, name string, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		d, err := s.timed(layer, name, fn)
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

func perUnit(d time.Duration, n uint64) float64 { return float64(d.Nanoseconds()) / float64(n) }

// layers runs the per-layer suite after the traced workload run o and
// returns every per-layer metric.
func (b *bench) layers(ctx context.Context, o *outcome) (map[string]metric, error) {
	s := &suite{b: b, m: map[string]metric{}}
	s.root = b.tr.begin("layers", "per-layer suite", 0)
	defer b.tr.end(s.root)
	s.put("runner.core_util", o.cpu.Seconds()/(o.cpuWall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	for _, step := range []func(context.Context, *outcome) error{
		s.experiments, s.engines, s.replay, s.expAndStore, s.serve,
	} {
		if err := step(ctx, o); err != nil {
			return nil, err
		}
	}
	return s.m, nil
}

// experiments runs every registered experiment in-process and uncached
// at the reproduce workload's scale, then serve's miss configs.
func (s *suite) experiments(ctx context.Context, o *outcome) error {
	b := s.b
	all := exp.All()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
	}
	seed := b.reproSeed(names)
	// The reproduce workload's cold envelope, when this traced run is
	// the reproduce workload: each in-process report must equal it.
	var cold []json.RawMessage
	if o.envelope != nil {
		var e struct {
			Reports []json.RawMessage `json:"reports"`
		}
		if json.Unmarshal(o.envelope, &e) == nil {
			cold = e.Reports
		}
	}
	gen0 := tracestore.Default.Stats().Generations
	for i, e := range all {
		cfg := e.New()
		cfg.BaseConfig().Instructions = b.reproInstructions()
		cfg.BaseConfig().Seed = seed
		for _, p := range exp.ParamsOf(cfg) {
			if p.Name == "maxstride" {
				if err := p.Set(fmt.Sprint(reproMaxStride)); err != nil {
					return err
				}
			}
		}
		var rep *exp.Report
		d, err := s.timed("experiments", "exp.Run "+e.Name, func() (err error) {
			rep, err = exp.RunWith(ctx, nil, e, cfg)
			return err
		})
		if err != nil {
			return err
		}
		s.put("experiments."+e.Name+"_s", d.Seconds(), "s")
		if cold != nil {
			b.count(sameReport(e.Name, rep, cold, i))
		}
	}
	s.put("tracestore.generations", float64(tracestore.Default.Stats().Generations-gen0), "count")

	_, seq := b.servePlan(1)
	var lat []float64
	used0 := tracestore.Default.UsedBytes()
	// The last fresh configs of the sequence: the in-process server
	// below replays its start, and must meet unsimulated seeds.
	for i := len(seq) - 1; i >= 0 && len(lat) < 10; i-- {
		r := seq[i]
		if !r.fresh {
			continue
		}
		d, err := s.timed("experiments", "exp.Run "+r.exp+" (serve miss)", func() error {
			_, err := reference(ctx, r)
			return err
		})
		if err != nil {
			return err
		}
		lat = append(lat, ms(d))
	}
	s.put("experiments.serve_miss_ms", median(lat), "ms")
	s.put("tracestore.used_mb", float64(tracestore.Default.UsedBytes()-used0)/float64(len(lat))/(1<<20), "MB")
	return nil
}

// sameReport checks an in-process report against report i of the cold
// `repro all` envelope.
func sameReport(name string, rep *exp.Report, cold []json.RawMessage, i int) error {
	var fresh, want bytes.Buffer
	raw, err := json.Marshal(rep)
	if err == nil && i < len(cold) {
		err = firstErr(json.Compact(&fresh, raw), json.Compact(&want, cold[i]))
	}
	if err != nil || i >= len(cold) || !bytes.Equal(fresh.Bytes(), want.Bytes()) {
		return fmt.Errorf("%s: in-process report differs from the cold repro all envelope", name)
	}
	return nil
}

// engines times the simulation engines and the trace pipeline on the
// gcc memory trace generated from the seed.
func (s *suite) engines(ctx context.Context, _ *outcome) error {
	b := s.b
	prof, _ := workload.ByName("gcc")
	n := b.layerRecords()
	seed := b.seed
	noop := func([]trace.Rec) {}

	// workload: mem-only generation over the whole suite.
	suiteProfs := workload.Suite()
	buf := make([]trace.Rec, tracestore.ChunkLen)
	per := n / uint64(len(suiteProfs))
	d, err := s.timed("workload", "workload.Source+MemOnly (suite)", func() error {
		for _, p := range suiteProfs {
			src := &trace.Limit{S: &trace.MemOnly{S: workload.Source(p, seed)}, N: per}
			for {
				if _, eof := src.ReadChunk(buf); eof {
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.put("workload.gen_ns_per_rec", perUnit(d, per*uint64(len(suiteProfs))), "ns/rec")

	// tracestore: first materialization (generate + pack) and replay.
	st := tracestore.New(tracestore.DefaultMaxBytes)
	d, err = s.timed("tracestore", "Store.MemLen (generate+pack)", func() error {
		got, err := st.MemLen(ctx, prof, seed, n)
		if err == nil && got != n {
			err = fmt.Errorf("materialized %d records, want %d", got, n)
		}
		return err
	})
	if err != nil {
		return err
	}
	gcc, err := s.timed("workload", "workload.Source+MemOnly (gcc)", func() error {
		src := &trace.Limit{S: &trace.MemOnly{S: workload.Source(prof, seed)}, N: n}
		for {
			if _, eof := src.ReadChunk(buf); eof {
				return nil
			}
		}
	})
	if err != nil {
		return err
	}
	s.put("tracestore.pack_ns_per_rec", perUnit(d-gcc, n), "ns/rec")
	replay := func(fn func([]trace.Rec)) error { return st.ReplayMem(ctx, prof, seed, n, fn) }
	unpack, err := s.medianOf(3, "tracestore", "Store.ReplayMem", func() error { return replay(noop) })
	if err != nil {
		return err
	}
	s.put("tracestore.unpack_ns_per_rec", perUnit(unpack, n), "ns/rec")

	// trace: the broadcast handoff, net of the unpack it carries.
	chunks := (n + tracestore.ChunkLen - 1) / tracestore.ChunkLen
	bc, err := s.medianOf(3, "trace", "Broadcast (nproc consumers)", func() error {
		return broadcast(ctx, st, prof, seed, n, b.nproc, func(int, []trace.Rec) {})
	})
	if err != nil {
		return err
	}
	s.put("trace.broadcast_ns_per_chunk", perUnit(bc-unpack, chunks), "ns/chunk")

	// cache: the sweep's Grid, sequential and point-sharded.
	spec := experiments.SweepGridSpec()
	points := n * uint64(len(spec))
	d, err = s.medianOf(3, "cache", "Grid.AccessStream (sweep spec)", func() error {
		g := cache.NewGrid(spec)
		return replay(func(recs []trace.Rec) { g.AccessStream(recs) })
	})
	if err != nil {
		return err
	}
	s.put("cache.grid_ns_per_point", perUnit(d, points), "ns")
	d, err = s.medianOf(3, "cache", "ShardedGrid (nproc shards)", func() error {
		sg := cache.NewShardedGrid(spec, b.nproc)
		return broadcast(ctx, st, prof, seed, n, sg.Shards(), func(k int, recs []trace.Rec) { sg.Sub(k).AccessStream(recs) })
	})
	if err != nil {
		return err
	}
	s.put("cache.sharded_grid_ns_per_point", perUnit(d, points), "ns")

	// stackdist: the curves family and the fully-associative curve.
	d, err = s.medianOf(3, "stackdist", "Family.AccessStream", func() error {
		fam := stackdist.NewFamily(index.SchemeModulo, []int{32, 64, 128, 256, 512, 1024}, 32, 8, 14, false, false)
		return replay(func(recs []trace.Rec) { fam.AccessStream(recs) })
	})
	if err != nil {
		return err
	}
	s.put("stackdist.family_ns_per_rec", perUnit(d, n), "ns/rec")
	d, err = s.medianOf(3, "stackdist", "Mattson.AccessStream", func() error {
		m := stackdist.NewMattson(32)
		return replay(func(recs []trace.Rec) { m.AccessStream(recs) })
	})
	if err != nil {
		return err
	}
	s.put("stackdist.mattson_ns_per_rec", perUnit(d, n), "ns/rec")

	// hierarchy: holes' suite configuration over the gcc memory trace.
	var mem []trace.Rec
	if err := replay(func(recs []trace.Rec) { mem = append(mem, recs...) }); err != nil {
		return err
	}
	d, err = s.medianOf(3, "hierarchy", "TwoLevel.Access (holes)", func() error {
		h := hierarchy.New(hierarchy.Config{
			L1: cache.Config{
				Size: 8 << 10, BlockSize: 32, Ways: 2,
				Placement: index.MustNew(index.SchemeIPolySk, 7, 2, 14),
			},
			L2:           cache.Config{Size: 1 << 20, BlockSize: 32, Ways: 2, WriteBack: true, WriteAllocate: true},
			ScrambleSeed: seed,
		})
		for _, r := range mem {
			h.Access(r.Addr, r.Op == trace.OpStore)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.put("hierarchy.ns_per_access", perUnit(d, uint64(len(mem))), "ns")

	// cpu: the out-of-order core on the gcc instruction stream at the
	// reproduce workload's scale.
	instrs := b.reproInstructions()
	full := trace.Collect(workload.Source(prof, seed), int(instrs))
	d, err = s.medianOf(3, "cpu", "Core.Run", func() error {
		cpu.New(cpu.DefaultConfig(cpu.PaperCache(8<<10, nil))).Run(trace.NewSliceSource(full), instrs)
		return nil
	})
	if err != nil {
		return err
	}
	s.put("cpu.ns_per_instr", perUnit(d, instrs), "ns")
	return nil
}

// broadcast replays n records of (prof, seed) from st through a
// trace.Broadcast to consumers goroutines, consumer k calling fn(k, chunk).
func broadcast(ctx context.Context, st *tracestore.Store, prof workload.Profile, seed, n uint64, consumers int, fn func(int, []trace.Rec)) error {
	bc := trace.NewBroadcast(consumers, 6, tracestore.ChunkLen)
	done := make(chan struct{}, consumers)
	for k := 0; k < consumers; k++ {
		go func(k int) {
			bc.Receive(k, func(recs []trace.Rec) { fn(k, recs) })
			done <- struct{}{}
		}(k)
	}
	err := st.ReplayMemChunks(ctx, prof, seed, n, bc.Slot, bc.Publish)
	bc.CloseSend(err)
	for k := 0; k < consumers; k++ {
		<-done
	}
	return err
}

// replay times the external-trace layers on the replay fixture: decode,
// hash, per-scheme cache access, the packed-trace disk load, and the
// replay driver's K=1 against K=nproc counters.
func (s *suite) replay(ctx context.Context, o *outcome) error {
	b := s.b
	records := b.replayRecords()
	fx, err := b.fixture(records)
	if err != nil {
		return err
	}
	geoms := append([]geometry{setupGeometry}, replayGeometries...)
	var sc scan
	if _, err := s.timed("trace", "OpenFile+ReadChunk, Cache.Access per geometry", func() (err error) {
		sc, err = scanFixture(fx, geoms)
		return err
	}); err != nil {
		return err
	}
	s.put("trace.decode_ns_per_rec", perUnit(sc.decode, sc.records), "ns/rec")
	for i, g := range replayGeometries {
		s.put("cache.access_ns."+g.name, perUnit(sc.access[i+1], sc.records), "ns")
	}
	d, err := s.medianOf(3, "trace", "HashFile", func() error {
		_, _, err := trace.HashFile(fx)
		return err
	})
	if err != nil {
		return err
	}
	s.put("trace.hash_ms", ms(d), "ms")

	// tracestore: persist the packed fixture, then time a fresh store's
	// load of it (net of the replay that follows the load).
	prof, err := workload.ExternalProfile(fx)
	if err != nil {
		return err
	}
	dir := b.dir("layers-trace-store")
	materialize := func(name string) (time.Duration, time.Duration, error) {
		d, err := store.Open(dir, store.DefaultMaxBytes)
		if err != nil {
			return 0, 0, err
		}
		st := tracestore.New(tracestore.DefaultMaxBytes)
		st.SetPersistent(d)
		count := func() error {
			got, err := st.MemLen(ctx, prof, b.seed, records)
			if err == nil && got != records {
				err = fmt.Errorf("%d records, want %d", got, records)
			}
			return err
		}
		first, err := s.timed("tracestore", name, count)
		if err != nil {
			return 0, 0, err
		}
		again, err := s.timed("tracestore", "Store.MemLen (memory)", count)
		return first, again, err
	}
	if _, _, err := materialize("Store.MemLen (decode+pack+persist)"); err != nil {
		return err
	}
	runtime.GC()
	load, again, err := materialize("Store.MemLen (disk load)")
	if err != nil {
		return err
	}
	s.put("tracestore.disk_load_ms", ms(load-again), "ms")
	runtime.GC()

	// replay driver: K=1 against K=nproc, every counter, every geometry;
	// K=1 must equal the direct cache.Cache replay.
	var diff uint64
	for i, g := range replayGeometries {
		var st [2]cache.Stats
		for j, k := range []int{1, b.nproc} {
			cfg := experiments.ReplayConfig{
				Base: exp.Base{Instructions: records, Seed: b.seed, TraceFile: fx},
				Size: g.size, Ways: g.ways, Scheme: g.scheme, TimeShards: k,
			}
			if _, err := s.timed("replay", fmt.Sprintf("RunReplayCtx %s K=%d", g.name, k), func() error {
				res, err := experiments.RunReplayCtx(ctx, cfg)
				st[j] = res.Stats
				return err
			}); err != nil {
				return err
			}
		}
		diff += statsDiff(st[0], st[1])
		var err error
		if st[0] != sc.stats[i+1] {
			err = fmt.Errorf("replay %s K=1: in-process counters differ from the direct cache.Cache replay", g.name)
		}
		b.count(err)
	}
	s.put("replay.shard_counter_diff", float64(diff), "count")
	return nil
}

// statsDiff sums |a-b| over every counter.
func statsDiff(a, b cache.Stats) uint64 {
	pairs := [][2]uint64{
		{a.Accesses, b.Accesses}, {a.Hits, b.Hits}, {a.Misses, b.Misses},
		{a.ReadHits, b.ReadHits}, {a.ReadMisses, b.ReadMisses},
		{a.WriteHits, b.WriteHits}, {a.WriteMiss, b.WriteMiss},
		{a.Evictions, b.Evictions}, {a.Writebacks, b.Writebacks},
		{a.Invalidates, b.Invalidates}, {a.Fills, b.Fills},
	}
	var d uint64
	for _, p := range pairs {
		d += absDiff(p[0], p[1])
	}
	return d
}

// expAndStore times the request-path helpers of exp on serve's request
// bodies, and the artifact store on the reports they produce.
func (s *suite) expAndStore(ctx context.Context, _ *outcome) error {
	b := s.b
	warm, seq := b.servePlan(1)
	type decoded struct {
		e   exp.Experiment
		raw []byte
		cfg exp.Config
	}
	in := make([]decoded, len(seq))
	for i, r := range seq {
		e, ok := exp.Get(r.exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q", r.exp)
		}
		in[i] = decoded{e: e, raw: r.config()}
	}
	calls := uint64(len(in))
	pass := func(spans bool) (dec, key time.Duration, err error) {
		for i := range in {
			sp := 0
			if spans {
				sp = b.tr.begin("layers/exp", "exp.DecodeConfig", s.root)
			}
			t0 := time.Now()
			in[i].cfg, err = exp.DecodeConfig(in[i].e, in[i].raw)
			t1 := time.Now()
			b.tr.end(sp)
			if spans {
				sp = b.tr.begin("layers/exp", "exp.ReportKey", s.root)
			}
			t2 := time.Now()
			if err == nil {
				_, err = exp.ReportKey(in[i].e, in[i].cfg)
			}
			key += time.Since(t2)
			b.tr.end(sp)
			dec += t1.Sub(t0)
			if err != nil {
				return 0, 0, err
			}
		}
		return dec, key, nil
	}
	// Alternate untraced and traced passes; the overhead compares their
	// medians.
	var dec, key time.Duration
	var untraced, traced []float64
	for r := 0; r < 3; r++ {
		d, err := s.timed("exp", "DecodeConfig+ReportKey (serve bodies)", func() (err error) {
			dec, key, err = pass(false)
			return err
		})
		if err != nil {
			return err
		}
		untraced = append(untraced, d.Seconds())
		d, err = s.timed("exp", "DecodeConfig+ReportKey (serve bodies, a span per call)", func() error {
			_, _, err := pass(true)
			return err
		})
		if err != nil {
			return err
		}
		traced = append(traced, d.Seconds())
	}
	s.put("exp.decode_config_us", perUnit(dec, calls)/1e3, "us")
	s.put("exp.report_key_us", perUnit(key, calls)/1e3, "us")
	s.put("bench.trace_overhead_pct", 100*(median(traced)-median(untraced))/median(untraced), "%")

	// A result cache holding one warm config per experiment.
	d, err := store.Open(b.dir("layers-result-cache"), store.DefaultMaxBytes)
	if err != nil {
		return err
	}
	rc := exp.NewResultCache(d)
	var reps []*exp.Report
	var cfgs []decoded
	for i := 0; i < len(warm); i += serveWarmSeeds {
		e, _ := exp.Get(warm[i].exp)
		cfg, err := exp.DecodeConfig(e, warm[i].config())
		if err != nil {
			return err
		}
		rep, err := exp.RunWith(ctx, rc, e, cfg)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
		cfgs = append(cfgs, decoded{e: e, cfg: cfg})
	}
	const reps20 = 20
	probe, err := s.timed("exp", "ResultCache.Cached (hit)", func() error {
		for r := 0; r < reps20; r++ {
			for _, c := range cfgs {
				if _, ok := rc.Cached(c.e, c.cfg); !ok {
					return fmt.Errorf("%s: probe missed a stored report", c.e.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.put("exp.cached_probe_us", perUnit(probe, uint64(reps20*len(cfgs)))/1e3, "us")
	var sink bytes.Buffer
	enc, err := s.timed("exp", "WriteJSON", func() error {
		for r := 0; r < reps20; r++ {
			for _, rep := range reps {
				sink.Reset()
				if err := exp.WriteJSON(&sink, rep); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.put("exp.encode_us", perUnit(enc, uint64(reps20*len(reps)))/1e3, "us")

	// store: verified Put and Get of the encoded reports.
	var blobs [][]byte
	var kb float64
	for _, rep := range reps {
		blob, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		blobs = append(blobs, blob)
		kb += float64(len(blob)) / 1024
	}
	const keys = 10
	put, err := s.timed("store", "Store.Put", func() error {
		for k := 0; k < keys; k++ {
			for i, blob := range blobs {
				if err := d.Put("perfbench", fmt.Sprintf("%d-%d", k, i), "v1", nil, blob); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	get, err := s.timed("store", "Store.Get", func() error {
		for k := 0; k < keys; k++ {
			for i, blob := range blobs {
				got, ok := d.Get("perfbench", fmt.Sprintf("%d-%d", k, i), "v1")
				if !ok || !bytes.Equal(got, blob) {
					return fmt.Errorf("store get %d-%d: wrong or missing blob", k, i)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.put("store.put_us_per_kb", float64(put.Microseconds())/(kb*keys), "us/KB")
	s.put("store.get_us_per_kb", float64(get.Microseconds())/(kb*keys), "us/KB")
	return nil
}

// serve drives an in-process serve.Server over loopback HTTP with the
// serve workload's warm set and the start of its request sequence, then
// with hits alone, and calls its handler directly.
func (s *suite) serve(ctx context.Context, _ *outcome) error {
	b := s.b
	warm, seq := b.servePlan(1)
	if len(seq) > 120 {
		seq = seq[:120]
	}
	d, err := store.Open(b.dir("layers-serve-store"), store.DefaultMaxBytes)
	if err != nil {
		return err
	}
	rc := exp.NewResultCache(d)
	// As `repro serve` does: packed traces persist beside the reports.
	tracestore.Default.SetPersistent(d)
	defer tracestore.Default.SetPersistent(nil)
	srv := serve.New(serve.Options{Cache: rc})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Shutdown(context.Background())
	}()
	client := hs.Client()

	check := func(rs []reply) error {
		for _, rp := range rs {
			if rp.err != nil || rp.status != http.StatusOK {
				return fmt.Errorf("in-process serve: %s seed %d: HTTP %d %v", rp.req.exp, rp.req.seed, rp.status, rp.err)
			}
		}
		return nil
	}
	// phase posts reqs under one span that parents the request spans.
	phase := func(name, op string, reqs []request) ([]reply, error) {
		sp := b.tr.begin("layers/serve", name, s.root)
		defer b.tr.end(sp)
		rs := b.post(ctx, client, hs.URL, reqs, op, sp)
		return rs, check(rs)
	}
	if _, err := phase("fill warm set", "layers-fill", warm); err != nil {
		return err
	}
	before, err := stats(ctx, client, hs.URL)
	if err != nil {
		return err
	}
	load, err := phase("request sequence", "layers-req", seq)
	if err != nil {
		return err
	}
	after, err := stats(ctx, client, hs.URL)
	if err != nil {
		return err
	}
	fast, sim := 0, 0
	for _, rp := range load {
		if rp.hit {
			fast++
		} else {
			sim++
		}
	}
	s.put("serve.fastpath_ratio", float64(fast)/float64(len(load)), "ratio")
	s.put("serve.coalesced", float64(after.Coalesced-before.Coalesced), "count")
	s.put("serve.rejected", float64(after.Rejected-before.Rejected), "count")
	s.put("store.writes_per_miss", float64(after.Store.Writes-before.Store.Writes)/float64(max(sim, 1)), "count")

	// Hits with no simulation running.
	hitsOnly := make([]request, 0, 200)
	for i := 0; len(hitsOnly) < cap(hitsOnly); i++ {
		hitsOnly = append(hitsOnly, warm[i%len(warm)])
	}
	idle, err := phase("hits only", "layers-idle", hitsOnly)
	if err != nil {
		return err
	}
	var lat []float64
	for _, rp := range idle {
		lat = append(lat, ms(rp.lat))
	}
	s.put("serve.hit_p95_idle_ms", quantile(lat, 0.95), "ms")

	// The handler alone, no network.
	h := srv.Handler()
	body := warm[0].body()
	lat = lat[:0]
	if _, err := s.timed("serve", "Handler.ServeHTTP (hit)", func() error {
		for i := 0; i < 200; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			if rec.Code != http.StatusOK || rec.Header().Get("X-Repro-Cache") != "hit" {
				return fmt.Errorf("in-process handler: HTTP %d, cache %q", rec.Code, rec.Header().Get("X-Repro-Cache"))
			}
		}
		return nil
	}); err != nil {
		return err
	}
	s.put("serve.handler_hit_us", median(lat), "us")
	return nil
}
