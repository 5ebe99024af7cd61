package cpu

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// randomStream builds a random but well-formed instruction stream.
func randomStream(seed uint64, n int) []trace.Rec {
	r := rng.New(seed)
	recs := make([]trace.Rec, 0, n)
	for i := 0; i < n; i++ {
		op := trace.Op(r.Intn(10))
		rec := trace.Rec{
			PC:   uint64(0x10000 + 4*(i%64)),
			Op:   op,
			Dst:  uint8(1 + r.Intn(30)),
			Src1: uint8(r.Intn(32)),
			Src2: uint8(r.Intn(32)),
		}
		if op.IsMem() {
			rec.Addr = uint64(r.Intn(1 << 22))
		}
		if op == trace.OpBranch {
			rec.Taken = r.Bool(0.5)
		}
		recs = append(recs, rec)
	}
	return recs
}

func TestRandomStreamsNeverDeadlock(t *testing.T) {
	// Fuzz the pipeline with random streams under several configurations:
	// every instruction must commit and the basic timing invariants must
	// hold.
	for seed := uint64(1); seed <= 8; seed++ {
		for _, variant := range []func(Config) Config{
			func(c Config) Config { return c },
			func(c Config) Config { c.XorInCP = true; return c },
			func(c Config) Config { c.AddrPred = true; return c },
			func(c Config) Config { c.MSHRs = 1; return c },
		} {
			cfg := variant(defaultTestConfig())
			recs := randomStream(seed, 3000)
			res := New(cfg).Run(trace.NewSliceSource(recs), uint64(len(recs)))
			if res.Instructions != uint64(len(recs)) {
				t.Fatalf("seed %d: committed %d of %d (deadlock?)", seed, res.Instructions, len(recs))
			}
			if res.Cycles == 0 {
				t.Fatalf("seed %d: zero cycles", seed)
			}
			// IPC can never exceed the commit width.
			if ipc := res.IPC(); ipc > width {
				t.Fatalf("seed %d: IPC %.2f exceeds width %d", seed, ipc, width)
			}
			// Loads partition into hits+misses (+forwards).
			if res.LoadMisses > res.Loads {
				t.Fatalf("seed %d: misses %d > loads %d", seed, res.LoadMisses, res.Loads)
			}
		}
	}
}

// pointerChase returns count loads of an endless walk over a list of n
// nodes of nodeSize bytes, scattered pseudo-randomly through [0,
// region) and linked in a random order.  Each hop's address register
// is the previous hop's destination, so every load depends on the one
// before: the access pattern that defeats stride prediction.
func pointerChase(region uint64, n, nodeSize int, seed uint64, count int) []trace.Rec {
	r := rng.New(seed)
	slots := int(region) / nodeSize
	used := make(map[int]bool, n)
	nodes := make([]uint64, 0, n)
	for len(nodes) < n {
		s := r.Intn(slots)
		if used[s] {
			continue
		}
		used[s] = true
		nodes = append(nodes, uint64(s*nodeSize))
	}
	// Random walk order: Fisher-Yates.
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	recs := make([]trace.Rec, count)
	var dep uint8
	for i := range recs {
		src := dep
		dep = 1 + dep%8
		recs[i] = trace.Rec{PC: 0x3000, Op: trace.OpLoad, Addr: nodes[i%n], Dst: dep, Src1: src}
	}
	return recs
}

func TestPointerChaseDefeatsAddressPrediction(t *testing.T) {
	// §3.4's predictor tracks strides; a pointer chase has none, so the
	// confident-prediction rate must stay low and, with the XOR on the
	// critical path, the penalty must remain visible.
	cfg := defaultTestConfig()
	cfg.AddrPred = true
	cfg.XorInCP = true
	chase := pointerChase(1<<20, 4096, 64, 9, 40000)
	res := New(cfg).Run(trace.NewSliceSource(chase), 40000)
	if res.Instructions != 40000 {
		t.Fatalf("committed %d", res.Instructions)
	}
	if res.APredHitRate > 0.2 {
		t.Errorf("predictor hit rate %.2f on a pointer chase; strides should not be learnable",
			res.APredHitRate)
	}
}

func TestTraceDrivenEquivalence(t *testing.T) {
	// Replaying a collected trace through the core must give the same
	// result as streaming it directly (the Source abstraction is
	// transparent).
	prof, _ := workload.ByName("li")
	recs := trace.Collect(&trace.Limit{S: workload.Source(prof, 5), N: 20000}, 0)
	a := New(defaultTestConfig()).Run(trace.NewSliceSource(recs), 20000)
	b := New(defaultTestConfig()).Run(&trace.Limit{S: workload.Source(prof, 5), N: 20000}, 20000)
	if a != b {
		t.Errorf("slice replay and direct stream diverged:\n%+v\n%+v", a, b)
	}
}
