package cpu

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// matchOracle runs the stream src makes on the core and on the oracle
// and fails unless every Result field is equal.  It returns the result.
func matchOracle(t *testing.T, name string, cfg Config, src func() trace.Source, n uint64) Result {
	t.Helper()
	got := New(cfg).Run(src(), n)
	want := newOracleCore(cfg).Run(src(), n)
	if got != want {
		t.Errorf("%s: core and oracle diverge\ncore:   %+v\noracle: %+v", name, got, want)
	}
	return got
}

func benchSource(prof workload.Profile, seed, n uint64) func() trace.Source {
	return func() trace.Source { return &trace.Limit{S: workload.Source(prof, seed), N: n} }
}

// paperIPoly is the I-Poly placement of the paper's 8 KB 2-way L1: 128
// sets, skewed, hashing 14 block-address bits.
func paperIPoly() index.Placement { return index.MustNew(index.SchemeIPolySk, 7, 2, 14) }

// table2Variants are Table 2's six processor/cache configurations.
func table2Variants() map[string]Config {
	ipoly := paperIPoly()
	c16 := DefaultConfig(PaperCache(16<<10, index.NewModulo(8)))
	c8 := DefaultConfig(PaperCache(8<<10, nil))
	c8pred := c8
	c8pred.AddrPred = true
	ip := DefaultConfig(PaperCache(8<<10, ipoly))
	incp := ip
	incp.XorInCP = true
	incpPred := incp
	incpPred.AddrPred = true
	return map[string]Config{
		"c16": c16, "c8": c8, "c8pred": c8pred,
		"ipoly": ip, "incp": incp, "incp+pred": incpPred,
	}
}

// finiteL2 returns cfg backed by ablate's 64 KB 2-way L2 indexed by
// scheme.
func finiteL2(cfg Config, scheme index.Scheme) Config {
	l2 := cache.Config{
		Size: 64 << 10, BlockSize: 32, Ways: 2,
		Placement: index.MustNew(scheme, 10, 2, 16), WriteBack: true, WriteAllocate: true,
	}
	cfg.L2 = &l2
	return cfg
}

// narrowStream is a random instruction stream, two in five of its ops
// loads or stores, whose memory ops fall in a window of words words, so
// store-to-load forwarding and loads waiting on older unissued stores
// are common.
func narrowStream(seed uint64, n, words int) []trace.Rec {
	r := rng.New(seed)
	recs := make([]trace.Rec, n)
	for i := range recs {
		op := trace.Op(r.Intn(10))
		if r.Bool(0.25) {
			op = trace.OpLoad + trace.Op(r.Intn(2))
		}
		rec := trace.Rec{
			PC:   uint64(0x10000 + 4*(i%64)),
			Op:   op,
			Dst:  uint8(1 + r.Intn(12)),
			Src1: uint8(r.Intn(12)),
			Src2: uint8(r.Intn(12)),
		}
		if op.IsMem() {
			rec.Addr = 0x40000 + 8*uint64(r.Intn(words)) + uint64(r.Intn(8))
		}
		if op == trace.OpBranch {
			rec.Taken = r.Bool(0.5)
		}
		recs[i] = rec
	}
	return recs
}

func TestCoreMatchesOracleTable2(t *testing.T) {
	const n = 8000
	for name, cfg := range table2Variants() {
		for _, prof := range workload.Suite() {
			matchOracle(t, prof.Name+"/"+name, cfg, benchSource(prof, 11, n), n)
		}
	}
}

func TestCoreMatchesOracleAblateOptions31(t *testing.T) {
	const n = 20000
	swim, _ := workload.ByName("swim")
	for _, m := range []int{1, 2, 4, 8, 16} {
		cfg := DefaultConfig(PaperCache(8<<10, nil))
		cfg.MSHRs = m
		matchOracle(t, fmt.Sprintf("swim/mshrs=%d", m), cfg, benchSource(swim, 3, n), n)
	}
	opt1 := DefaultConfig(PaperCache(8<<10, paperIPoly()))
	opt1.ExtraLoadCycles = 1
	for _, name := range workload.BadPrograms() {
		prof, _ := workload.ByName(name)
		for _, scheme := range []index.Scheme{index.SchemeModulo, index.SchemeIPolySk} {
			cfg := finiteL2(DefaultConfig(PaperCache(8<<10, nil)), scheme)
			r := matchOracle(t, name+"/l2="+string(scheme), cfg, benchSource(prof, 3, n), n)
			if r.L2Misses == 0 {
				t.Errorf("%s/l2=%s: no L2 misses; the finite L2 was not exercised", name, scheme)
			}
		}
		matchOracle(t, name+"/extra-load-cycle", opt1, benchSource(prof, 3, n), n)
	}
}

// shapeVariants reshape the conventional 8 KB core: one MSHR, and the
// XOR penalty, address predictor, extra load cycle and finite L2 the
// experiments turn on.
var shapeVariants = map[string]func(Config) Config{
	"default":  func(c Config) Config { return c },
	"mshrs=1":  func(c Config) Config { c.MSHRs = 1; return c },
	"xor+pred": func(c Config) Config { c.XorInCP = true; c.AddrPred = true; return c },
	"extra+l2": func(c Config) Config { c.ExtraLoadCycles = 1; return finiteL2(c, index.SchemeModulo) },
}

func TestCoreMatchesOracleShapes(t *testing.T) {
	const n = 10000
	for vname, v := range shapeVariants {
		for _, name := range []string{"gcc", "swim", "fpppp"} {
			prof, _ := workload.ByName(name)
			matchOracle(t, name+"/"+vname, v(DefaultConfig(PaperCache(8<<10, nil))), benchSource(prof, 5, n), n)
		}
	}
}

func TestCoreMatchesOracleNarrowStreams(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, words := range []int{4, 24, 48} {
			recs := narrowStream(seed, 3000, words)
			src := func() trace.Source { return trace.NewSliceSource(recs) }
			var forwarded uint64
			for vname, v := range shapeVariants {
				name := fmt.Sprintf("seed=%d/words=%d/%s", seed, words, vname)
				forwarded += matchOracle(t, name, v(DefaultConfig(PaperCache(8<<10, nil))), src, uint64(len(recs))).Forwarded
			}
			if forwarded == 0 {
				t.Errorf("seed=%d/words=%d: no load was forwarded; the stream does not exercise disambiguation", seed, words)
			}
		}
	}
}

// fuzzConfig decodes a configuration variant from two bytes.
func fuzzConfig(b []byte) Config {
	var placement index.Placement
	if b[1]&0x80 != 0 {
		placement = paperIPoly()
	}
	cfg := DefaultConfig(PaperCache(8<<10, placement))
	cfg.MSHRs = 1 + int(b[0]%16)
	cfg.AddrPred = b[1]&0x08 != 0
	cfg.XorInCP = b[1]&0x10 != 0
	cfg.ExtraLoadCycles = uint64(b[1] >> 5 & 1)
	if b[1]&0x40 != 0 {
		cfg = finiteL2(cfg, index.SchemeModulo)
	}
	return cfg
}

// fuzzStream decodes three bytes per instruction: the op and branch
// outcome, two of the eight registers in play, and the third register
// and which of the window addresses, stride bytes apart, a memory op
// touches.
func fuzzStream(b []byte, window, stride uint64) []trace.Rec {
	recs := make([]trace.Rec, 0, len(b)/3)
	for i := 0; i+3 <= len(b); i += 3 {
		op := trace.Op(b[i] % 10)
		rec := trace.Rec{
			PC:    uint64(0x2000 + 4*(len(recs)%32)),
			Op:    op,
			Dst:   1 + b[i+1]&7,
			Src1:  b[i+1] >> 3 & 7,
			Src2:  b[i+2] & 7,
			Taken: b[i]&0x80 != 0,
		}
		if op.IsMem() {
			rec.Addr = 0x80000 + stride*(uint64(b[i+2])%window) + uint64(b[i+1]>>6)
		}
		recs = append(recs, rec)
	}
	return recs
}

// FuzzCoreVsOracle holds the core to the oracle on streams and
// configurations the fuzzer builds: two bytes pick the configuration
// (MSHRs, predictor, XOR penalty, extra load cycle, finite L2,
// placement), two the address window and its stride (a word, a line,
// or a page so that every address conflicts), and the rest the stream.
// Streams are capped at 512 instructions, enough to cycle the ROB many
// times over, so minimizing an input stays quick.
func FuzzCoreVsOracle(f *testing.F) {
	f.Add([]byte{7, 0x00, 3, 0, 7, 1, 2, 8, 1, 2, 7, 9, 5, 8, 9, 5, 7, 17, 5})
	f.Add([]byte{0, 0x5d, 0, 0, 8, 2, 1, 7, 3, 1, 7, 3, 1, 8, 2, 0, 7, 3, 0, 2, 4, 4})
	f.Add([]byte{15, 0xfa, 200, 0, 7, 1, 9, 9, 0, 0, 5, 0xff, 0xff, 2, 7, 0x41, 3, 8, 0x50, 3, 7, 0x41, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 4+3*512 {
			return
		}
		cfg := fuzzConfig(data[:2])
		window := 1 + uint64(data[2])
		stride := [...]uint64{8, 32, 4096, 8200}[data[3]&3]
		recs := fuzzStream(data[4:], window, stride)
		n := uint64(len(recs))
		got := New(cfg).Run(trace.NewSliceSource(recs), n)
		want := newOracleCore(cfg).Run(trace.NewSliceSource(recs), n)
		if got != want {
			t.Fatalf("core and oracle diverge on %d instructions\ncore:   %+v\noracle: %+v", n, got, want)
		}
	})
}
