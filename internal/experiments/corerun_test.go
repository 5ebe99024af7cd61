package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/gf2"
	"repro/internal/index"
	"repro/internal/trace"
	"repro/internal/workload"
)

// emptyCores installs an empty core memo until the test ends, so the
// runs that follow simulate afresh instead of reading what earlier runs
// in this process simulated.
func emptyCores(t *testing.T) *coreMemo {
	t.Helper()
	saved := cores
	cores = newCoreMemo(coreMemoEntries)
	t.Cleanup(func() { cores = saved })
	return cores
}

// freshCore simulates cfg over the first n instructions of prof's trace
// without the memo.
func freshCore(prof workload.Profile, seed, n uint64, cfg cpu.Config) cpu.Result {
	return cpu.New(cfg).Run(&trace.Limit{S: workload.Source(prof, seed), N: n}, n)
}

// batchCores lists every distinct core simulation ablate, options31,
// table2 and table3 ask for, built afresh here, one per memo entry a
// batch of the four leaves: Table 2's grid, options31's option 1 on the
// bad programs, and the ablate variants Table 2 lacks (its MSHR count 8
// and 1024-entry predictor are Table 2's c8 and incp+pred cells).
func batchCores() (progs []string, cfgs []cpu.Config) {
	add := func(cfg cpu.Config, names ...string) {
		for _, name := range names {
			progs = append(progs, name)
			cfgs = append(cfgs, cfg)
		}
	}
	t2 := table2Configs()
	for _, prof := range workload.Suite() {
		for _, key := range table2ConfigOrder() {
			add(t2[key], prof.Name)
		}
	}
	bad := workload.BadPrograms()
	ipoly := index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits)
	opt1 := cpu.DefaultConfig(cpu.PaperCache(8<<10, ipoly))
	opt1.ExtraLoadCycles = 1
	add(opt1, bad...)
	for _, n := range []int{1, 2, 4, 16} {
		c := cpu.DefaultConfig(cpu.PaperCache(8<<10, nil))
		c.MSHRs = n
		add(c, "swim")
	}
	for _, s := range []index.Scheme{index.SchemeModulo, index.SchemeIPolySk} {
		c := cpu.DefaultConfig(cpu.PaperCache(8<<10, nil))
		c.L2 = &cache.Config{Size: 64 << 10, BlockSize: 32, Ways: 2,
			Placement: index.MustNew(s, 10, 2, 16), WriteBack: true, WriteAllocate: true}
		add(c, bad...)
	}
	for _, n := range []int{64, 256, 4096} {
		c := cpu.DefaultConfig(cpu.PaperCache(8<<10, ipoly))
		c.XorInCP, c.AddrPred, c.APredEntries = true, true, n
		add(c, "tomcatv")
	}
	return progs, cfgs
}

// TestCoreMemoServesBatch pins what the core memo saves a batch and
// that it changes no result.  On an empty memo, ablate, options31,
// table2 and table3, run in registry order as `repro all` runs them,
// make exactly 15, 8, 101 and 0 new core simulations (without the memo
// they make 15, 9, 108 and 108): options31's conventional swim run is
// ablate's 8-MSHR one, table2 finds options31's conventional and
// option-3 runs and ablate's 1024-entry predictor run, and table3 is
// table2's grid.  Every entry the batch leaves must then answer a
// request from a configuration built afresh, and equal a simulation
// run without the memo, field for field.
func TestCoreMemoServesBatch(t *testing.T) {
	m := emptyCores(t)
	var names []string
	for _, e := range exp.All() {
		names = append(names, e.Name)
	}
	want := []struct {
		name            string
		simulated, hits uint64
	}{{"ablate", 15, 0}, {"options31", 8, 1}, {"table2", 101, 7}, {"table3", 0, 108}}
	last := -1
	for _, w := range want {
		i := slices.Index(names, w.name)
		if i <= last {
			t.Fatalf("registry order %v no longer runs %s after the experiments before it here", names, w.name)
		}
		last = i
		e, _ := exp.Get(w.name)
		before := m.stats()
		if _, err := exp.RunWith(context.Background(), nil, e, tinyRegistryConfig(t, e)); err != nil {
			t.Fatal(err)
		}
		after := m.stats()
		if sim, hits := after.Simulated-before.Simulated, after.Hits-before.Hits; sim != w.simulated || hits != w.hits {
			t.Errorf("%s: %d simulated, %d memo hits; want %d, %d", w.name, sim, hits, w.simulated, w.hits)
		}
	}
	if st := m.stats(); st != (CoreStats{Simulated: 124, Hits: 116}) {
		t.Errorf("batch: %+v, want 124 simulated and 116 memo hits", st)
	}

	progs, cfgs := batchCores()
	if len(m.entries) != len(cfgs) {
		t.Fatalf("the batch left %d memo entries, batchCores lists %d", len(m.entries), len(cfgs))
	}
	b := tinyBase()
	before := m.stats()
	for i, cfg := range cfgs {
		prof, _ := workload.ByName(progs[i])
		got, err := runCore(context.Background(), prof, b.Seed, b.Instructions, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fresh := freshCore(prof, b.Seed, b.Instructions, cfg); got != fresh {
			t.Errorf("%s, configuration %d: memo result\n%+v\nwant the fresh simulation's\n%+v", progs[i], i, got, fresh)
		}
	}
	if after := m.stats(); after.Simulated != before.Simulated || after.Hits-before.Hits != uint64(len(cfgs)) {
		t.Errorf("rebuilt configurations: %d simulated, %d memo hits; want 0 and %d",
			after.Simulated-before.Simulated, after.Hits-before.Hits, len(cfgs))
	}
}

// cfgKey is keyOf for a fixed program, seed and instruction count.
func cfgKey(cfg cpu.Config) coreKey { return keyOf(workload.Suite()[0], 7, 8000, cfg) }

// keyedConfig is a core configuration with every optional part set — a
// finite L2, explicit placements, the XOR penalty and both predictors —
// so that a change to any field can show in its key.
func keyedConfig() cpu.Config {
	c := cpu.DefaultConfig(cpu.PaperCache(8<<10, index.NewIPolyDefault(2, setBits8K, hashInBits)))
	c.L2 = &cache.Config{Size: 64 << 10, BlockSize: 32, Ways: 2,
		Placement: index.NewModulo(10), WriteBack: true, WriteAllocate: true}
	c.ExtraLoadCycles = 1
	c.XorInCP = true
	c.AddrPred = true
	return c
}

// otherPlacement returns a skewed I-Poly placement over p's sets whose
// polynomials neither the default I-Poly placement nor a modulo one
// shares.
func otherPlacement(p index.Placement) index.Placement {
	bits := 0
	for 1<<bits < p.Sets() {
		bits++
	}
	return index.NewIPoly(gf2.Irreducibles(bits, 4)[2:], bits, hashInBits)
}

// TestCoreConfigKeyCoversEveryField changes each exported field of a
// cpu.Config, of its L1's cache.Config and of its L2's, one at a time,
// and then the program, seed and instruction count, and requires a new
// key each time.  The fields are found by
// reflection, so a field added later is covered, and one of a kind the
// test cannot change fails it.  A placement changes to one over the same
// sets with other polynomials, and the L2 to none.
func TestCoreConfigKeyCoversEveryField(t *testing.T) {
	base := cfgKey(keyedConfig())
	if cfgKey(keyedConfig()) != base {
		t.Fatal("two builds of one configuration have different keys")
	}
	cacheCfg := reflect.TypeOf(cache.Config{})
	placement := reflect.TypeOf((*index.Placement)(nil)).Elem()
	var paths [][]string
	var walk func(typ reflect.Type, prefix []string)
	walk = func(typ reflect.Type, prefix []string) {
		for _, f := range reflect.VisibleFields(typ) {
			if !f.IsExported() {
				continue
			}
			path := append(slices.Clone(prefix), f.Name)
			switch f.Type {
			case cacheCfg: // the L1: change each of its fields
				walk(cacheCfg, path)
			case reflect.PointerTo(cacheCfg): // the L2: drop it, or change each of its fields
				paths = append(paths, path)
				walk(cacheCfg, path)
			default:
				paths = append(paths, path)
			}
		}
	}
	walk(reflect.TypeOf(cpu.Config{}), nil)

	for _, path := range paths {
		name := strings.Join(path, ".")
		c := keyedConfig()
		v := reflect.ValueOf(&c).Elem()
		for _, f := range path {
			if v.Kind() == reflect.Pointer {
				v = v.Elem()
			}
			v = v.FieldByName(f)
		}
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Pointer:
			v.SetZero()
		case reflect.Interface:
			if v.Type() != placement {
				t.Fatalf("%s: an interface other than index.Placement; teach keyOf its canonical form", name)
			}
			v.Set(reflect.ValueOf(otherPlacement(v.Interface().(index.Placement))))
		default:
			t.Fatalf("%s: a %s field; teach keyOf and this test to compare it", name, v.Kind())
		}
		if cfgKey(c) == base {
			t.Errorf("changing %s leaves the key unchanged", name)
		}
	}
	if len(paths) < 20 {
		t.Errorf("walked only %d fields: %v", len(paths), paths)
	}
	suite := workload.Suite()
	for name, k := range map[string]coreKey{
		"the program":           keyOf(suite[1], 7, 8000, keyedConfig()),
		"the seed":              keyOf(suite[0], 8, 8000, keyedConfig()),
		"the instruction count": keyOf(suite[0], 7, 8001, keyedConfig()),
	} {
		if k == base {
			t.Errorf("changing %s leaves the key unchanged", name)
		}
	}
}

// TestCoreConfigKeyPlacements pins the canonical placement form: skewed
// I-Poly placements with different polynomials, or the same ones in
// another way order, never share a key, and a nil placement shares the
// key of the modulo placement over the sets it implies, at L1 and L2.
func TestCoreConfigKeyPlacements(t *testing.T) {
	l1 := func(p index.Placement, size int) cpu.Config { return cpu.DefaultConfig(cpu.PaperCache(size, p)) }
	polys := gf2.Irreducibles(setBits8K, 3)
	skewed := func(a, b gf2.Poly) index.Placement {
		return index.NewIPoly([]gf2.Poly{a, b}, setBits8K, hashInBits)
	}
	keys := map[coreKey]string{}
	for name, p := range map[string]index.Placement{
		"p0,p1": skewed(polys[0], polys[1]),
		"p0,p2": skewed(polys[0], polys[2]),
		"p1,p2": skewed(polys[1], polys[2]),
		"p1,p0": skewed(polys[1], polys[0]),
	} {
		k := cfgKey(l1(p, 8<<10))
		if other, ok := keys[k]; ok {
			t.Errorf("a2-Hp-Sk with polynomials %s and %s share a key", name, other)
		}
		keys[k] = name
	}
	if cfgKey(l1(skewed(polys[0], polys[1]), 8<<10)) != cfgKey(l1(index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits), 8<<10)) {
		t.Error("two builds of the default a2-Hp-Sk placement have different keys")
	}

	for _, size := range []int{8 << 10, 16 << 10} {
		bits := setBits8K
		if size == 16<<10 {
			bits = setBits16K
		}
		if cfgKey(l1(nil, size)) != cfgKey(l1(index.NewModulo(bits), size)) {
			t.Errorf("%d KB L1: a nil placement and NewModulo(%d) have different keys", size>>10, bits)
		}
	}
	if cfgKey(l1(nil, 8<<10)) == cfgKey(l1(nil, 16<<10)) {
		t.Error("8 KB and 16 KB conventional L1s share a key")
	}
	withL2 := func(p index.Placement) cpu.Config {
		c := l1(nil, 8<<10)
		c.L2 = &cache.Config{Size: 64 << 10, BlockSize: 32, Ways: 2, Placement: p, WriteBack: true, WriteAllocate: true}
		return c
	}
	if cfgKey(withL2(nil)) != cfgKey(withL2(index.NewModulo(10))) {
		t.Error("L2: a nil placement and NewModulo(10) have different keys")
	}
	if cfgKey(withL2(nil)) == cfgKey(withL2(index.MustNew(index.SchemeIPolySk, 10, 2, 16))) {
		t.Error("modulo and I-Poly L2s share a key")
	}
}

// memoKey returns a distinct synthetic key per i.
func memoKey(i int) coreKey { return coreKey{byte(i)} }

// TestCoreMemoEvictsOldest pins the bound: past its limit the memo
// drops its oldest entry first, and a dropped key simulates again.
func TestCoreMemoEvictsOldest(t *testing.T) {
	m := newCoreMemo(2)
	ctx := context.Background()
	sims := 0
	get := func(i int) cpu.Result {
		t.Helper()
		r, err := m.do(ctx, memoKey(i), func() cpu.Result { sims++; return cpu.Result{Cycles: uint64(i)} })
		if err != nil || r.Cycles != uint64(i) {
			t.Fatalf("key %d: %+v, %v", i, r, err)
		}
		return r
	}
	for _, i := range []int{1, 2, 3, 2, 3, 1, 3, 1} {
		get(i)
		if len(m.entries) > 2 {
			t.Fatalf("%d entries, limit 2", len(m.entries))
		}
	}
	// 1, 2, 3 (evicts 1), hit 2, hit 3, 1 (evicts 2), hit 3, hit 1.
	if sims != 4 || m.stats() != (CoreStats{Simulated: 4, Hits: 4}) {
		t.Errorf("%d simulations, stats %+v; want 4 and 4 hits", sims, m.stats())
	}
}

// TestCoreMemoSharesInFlight pins the singleflight: requests for a key
// whose simulation is running wait for it instead of simulating.
func TestCoreMemoSharesInFlight(t *testing.T) {
	m := newCoreMemo(4)
	ctx := context.Background()
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]cpu.Result, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _ = m.do(ctx, memoKey(1), func() cpu.Result { close(started); <-release; return cpu.Result{Cycles: 7} })
	}()
	<-started
	for i := 1; i < len(results); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _ = m.do(ctx, memoKey(1), func() cpu.Result { t.Error("a waiter simulated"); return cpu.Result{} })
		}()
	}
	for m.stats().Hits < uint64(len(results)-1) {
		runtime.Gosched() // until every waiter has found the running entry
	}
	close(release)
	wg.Wait()
	for i, r := range results {
		if r.Cycles != 7 {
			t.Errorf("caller %d got %+v", i, r)
		}
	}
}

// TestCoreMemoWaiterCancels pins cancellation: a request waiting on
// another's simulation returns its own context's error at once, and the
// simulation still lands in the memo.
func TestCoreMemoWaiterCancels(t *testing.T) {
	m := newCoreMemo(4)
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.do(context.Background(), memoKey(1), func() cpu.Result { close(started); <-release; return cpu.Result{Cycles: 7} })
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.do(ctx, memoKey(1), func() cpu.Result { t.Error("the waiter simulated"); return cpu.Result{} }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter: %v, want context.Canceled", err)
	}
	close(release)
	<-done
	if r, err := m.do(context.Background(), memoKey(1), nil); err != nil || r.Cycles != 7 {
		t.Errorf("after the simulation: %+v, %v; want its result", r, err)
	}
	if _, err := runCore(ctx, workload.Suite()[0], 7, 100, keyedConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("runCore on a cancelled context: %v, want context.Canceled", err)
	}
}
