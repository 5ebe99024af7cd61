package cpu

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/trace"
	"repro/internal/workload"
)

// run simulates n instructions of a simple synthetic stream.
func runRecs(t *testing.T, cfg Config, recs []trace.Rec) Result {
	t.Helper()
	core := New(cfg)
	return core.Run(trace.NewSliceSource(recs), uint64(len(recs)))
}

func defaultTestConfig() Config {
	return DefaultConfig(PaperCache(8<<10, nil))
}

func TestIndependentALUOpsReachWidth(t *testing.T) {
	// A long run of independent single-cycle integer ops is still bounded
	// by the single simple-int unit: IPC -> 1.  (The paper's Table 1 has
	// one simple integer unit, so ILP is unit-limited, not width-limited.)
	var recs []trace.Rec
	for i := 0; i < 2000; i++ {
		recs = append(recs, trace.Rec{
			PC: uint64(0x1000 + 4*i), Op: trace.OpIntALU,
			Dst: uint8(1 + i%8), Src1: 30, Src2: 31,
		})
	}
	res := runRecs(t, defaultTestConfig(), recs)
	if res.Instructions != 2000 {
		t.Fatalf("committed %d", res.Instructions)
	}
	ipc := res.IPC()
	if ipc < 0.9 || ipc > 1.05 {
		t.Errorf("IPC = %.3f, want ~1 (single ALU unit bound)", ipc)
	}
}

func TestMixedUnitsExceedOneIPC(t *testing.T) {
	// Interleaving int, FP-add, FP-mul and loads uses separate units, so
	// IPC must exceed the single-unit bound.
	var recs []trace.Rec
	for i := 0; i < 4000; i += 4 {
		base := uint64(0x2000 + 4*i)
		recs = append(recs,
			trace.Rec{PC: base, Op: trace.OpIntALU, Dst: 1, Src1: 30, Src2: 31},
			trace.Rec{PC: base + 4, Op: trace.OpFPALU, Dst: 2, Src1: 28, Src2: 29},
			trace.Rec{PC: base + 8, Op: trace.OpFPMul, Dst: 3, Src1: 26, Src2: 27},
			trace.Rec{PC: base + 12, Op: trace.OpLoad, Addr: uint64(0x100000 + 8*(i%64)), Dst: 4, Src1: 30},
		)
	}
	res := runRecs(t, defaultTestConfig(), recs)
	if ipc := res.IPC(); ipc < 1.5 {
		t.Errorf("IPC = %.3f, want > 1.5 with four independent unit classes", ipc)
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	// Each op reads the previous op's destination: IPC ~= 1 regardless of
	// width (single-cycle ALU chain).
	var recs []trace.Rec
	for i := 0; i < 1000; i++ {
		recs = append(recs, trace.Rec{
			PC: uint64(0x3000 + 4*i), Op: trace.OpIntALU,
			Dst: 5, Src1: 5, Src2: 5,
		})
	}
	res := runRecs(t, defaultTestConfig(), recs)
	if ipc := res.IPC(); ipc > 1.1 {
		t.Errorf("IPC = %.3f on a serial dependence chain", ipc)
	}
}

func TestFPDependencyChainLatencyBound(t *testing.T) {
	// Chained FP adds (latency 4): IPC ~= 0.25.
	var recs []trace.Rec
	for i := 0; i < 800; i++ {
		recs = append(recs, trace.Rec{
			PC: uint64(0x4000 + 4*i), Op: trace.OpFPALU,
			Dst: 5, Src1: 5, Src2: 5,
		})
	}
	res := runRecs(t, defaultTestConfig(), recs)
	ipc := res.IPC()
	if ipc < 0.2 || ipc > 0.3 {
		t.Errorf("IPC = %.3f, want ~0.25 for latency-4 chain", ipc)
	}
}

func TestLoadMissPenaltyVisible(t *testing.T) {
	// All loads to distinct cold lines, each feeding a dependent op:
	// cycles per pair >= miss latency / MLP.  With 8 MSHRs and 2 ports,
	// misses overlap, but a chain through the loaded value serializes.
	var recs []trace.Rec
	for i := 0; i < 500; i++ {
		recs = append(recs,
			trace.Rec{PC: 0x5000, Op: trace.OpLoad, Addr: uint64(0x400000 + 32*i), Dst: 6, Src1: 6},
			trace.Rec{PC: 0x5004, Op: trace.OpIntALU, Dst: 6, Src1: 6, Src2: 6},
		)
	}
	res := runRecs(t, defaultTestConfig(), recs)
	if res.LoadMisses == 0 {
		t.Fatal("expected cold misses")
	}
	// Loads are address-dependent on the previous iteration: fully serial
	// ~22+ cycles per load.
	cpi := float64(res.Cycles) / float64(res.Instructions)
	if cpi < 8 {
		t.Errorf("CPI = %.2f; serialized misses should be >> hit time", cpi)
	}
}

func TestHitLatencyVsMiss(t *testing.T) {
	// Hot loop over 4 lines: after warmup everything hits.
	var recs []trace.Rec
	for i := 0; i < 2000; i++ {
		recs = append(recs, trace.Rec{
			PC: 0x6000, Op: trace.OpLoad, Addr: uint64(0x100000 + 32*(i%4)), Dst: uint8(1 + i%4), Src1: 30,
		})
	}
	res := runRecs(t, defaultTestConfig(), recs)
	if res.MissRatio() > 0.01 {
		t.Errorf("miss ratio %.4f on resident loop", res.MissRatio())
	}
}

func TestMispredictionStallsFrontEnd(t *testing.T) {
	mk := func(bias bool) []trace.Rec {
		var recs []trace.Rec
		taken := false
		for i := 0; i < 3000; i++ {
			if !bias {
				taken = !taken // alternating: 2-bit counter mispredicts a lot
			}
			recs = append(recs,
				trace.Rec{PC: 0x7000, Op: trace.OpIntALU, Dst: 1, Src1: 30, Src2: 31},
				trace.Rec{PC: 0x7004, Op: trace.OpBranch, Taken: bias || taken, Src1: 1},
			)
		}
		return recs
	}
	good := runRecs(t, defaultTestConfig(), mk(true))
	bad := runRecs(t, defaultTestConfig(), mk(false))
	if bad.IPC() >= good.IPC() {
		t.Errorf("mispredicted stream IPC %.3f not below predictable %.3f", bad.IPC(), good.IPC())
	}
	if bad.BranchAccuracy > 0.7 {
		t.Errorf("alternating branch accuracy %.2f unexpectedly high", bad.BranchAccuracy)
	}
	if good.BranchAccuracy < 0.95 {
		t.Errorf("constant branch accuracy %.2f too low", good.BranchAccuracy)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// Store then load the same word repeatedly: loads must forward, not
	// miss, and the run must not deadlock.
	var recs []trace.Rec
	for i := 0; i < 500; i++ {
		addr := uint64(0x200000 + 8*(i%4))
		recs = append(recs,
			trace.Rec{PC: 0x8000, Op: trace.OpStore, Addr: addr, Src1: 1},
			trace.Rec{PC: 0x8004, Op: trace.OpLoad, Addr: addr, Dst: 2, Src1: 30},
		)
	}
	res := runRecs(t, defaultTestConfig(), recs)
	if res.Instructions != 1000 {
		t.Fatalf("committed %d", res.Instructions)
	}
	if res.Forwarded == 0 {
		t.Error("no store-to-load forwarding happened")
	}
}

func TestXorPenaltyCostsIPC(t *testing.T) {
	// Same pointer-chase-ish load stream; XOR on the critical path with
	// unpredictable addresses must lower IPC.
	prof, _ := workload.ByName("go")
	base := DefaultConfig(PaperCache(8<<10, index.NewIPolyDefault(2, 7, 19)))
	xor := base
	xor.XorInCP = true

	r1 := New(base).Run(&trace.Limit{S: workload.Source(prof, 5), N: 60000}, 60000)
	r2 := New(xor).Run(&trace.Limit{S: workload.Source(prof, 5), N: 60000}, 60000)
	if r2.IPC() >= r1.IPC() {
		t.Errorf("XOR-in-CP IPC %.3f not below no-penalty IPC %.3f", r2.IPC(), r1.IPC())
	}
}

func TestAddrPredictionRecoversXorPenalty(t *testing.T) {
	// Strided loads are predictable: with the predictor on, the XOR
	// penalty should be (mostly) hidden.
	prof, _ := workload.ByName("tomcatv")
	ipoly := index.NewIPolyDefault(2, 7, 19)

	noCP := DefaultConfig(PaperCache(8<<10, ipoly))
	inCP := noCP
	inCP.XorInCP = true
	inCPPred := inCP
	inCPPred.AddrPred = true

	n := uint64(80000)
	rNo := New(noCP).Run(&trace.Limit{S: workload.Source(prof, 9), N: n}, n)
	rIn := New(inCP).Run(&trace.Limit{S: workload.Source(prof, 9), N: n}, n)
	rPred := New(inCPPred).Run(&trace.Limit{S: workload.Source(prof, 9), N: n}, n)

	if rIn.IPC() >= rNo.IPC() {
		t.Errorf("XOR penalty did not cost anything: %.3f vs %.3f", rIn.IPC(), rNo.IPC())
	}
	if rPred.IPC() < rIn.IPC() {
		t.Errorf("address prediction made things worse: %.3f vs %.3f", rPred.IPC(), rIn.IPC())
	}
	// The paper's headline: prediction recovers (at least) the no-penalty
	// performance on strided programs.
	if rPred.IPC() < rNo.IPC()*0.97 {
		t.Errorf("prediction recovered only %.3f of %.3f", rPred.IPC(), rNo.IPC())
	}
	if rPred.APredHitRate < 0.5 {
		t.Errorf("predictor hit rate %.2f too low on strided code", rPred.APredHitRate)
	}
}

func TestIPolyBeatsConventionalOnBadProgram(t *testing.T) {
	prof, _ := workload.ByName("swim")
	conv := DefaultConfig(PaperCache(8<<10, nil))
	ipoly := DefaultConfig(PaperCache(8<<10, index.NewIPolyDefault(2, 7, 19)))
	n := uint64(80000)
	rc := New(conv).Run(&trace.Limit{S: workload.Source(prof, 13), N: n}, n)
	ri := New(ipoly).Run(&trace.Limit{S: workload.Source(prof, 13), N: n}, n)
	if ri.MissRatio() >= rc.MissRatio()/2 {
		t.Errorf("I-Poly miss %.3f vs conventional %.3f: expected large reduction",
			ri.MissRatio(), rc.MissRatio())
	}
	if ri.IPC() <= rc.IPC() {
		t.Errorf("I-Poly IPC %.3f did not beat conventional %.3f on swim", ri.IPC(), rc.IPC())
	}
}

func TestDeterminism(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	cfg := DefaultConfig(PaperCache(8<<10, nil))
	a := New(cfg).Run(&trace.Limit{S: workload.Source(prof, 3), N: 30000}, 30000)
	b := New(cfg).Run(&trace.Limit{S: workload.Source(prof, 3), N: 30000}, 30000)
	if a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestROBDrainsAtEOF(t *testing.T) {
	recs := []trace.Rec{
		{PC: 0x100, Op: trace.OpFPDiv, Dst: 1, Src1: 2, Src2: 3},
		{PC: 0x104, Op: trace.OpIntALU, Dst: 2, Src1: 30, Src2: 31},
	}
	res := runRecs(t, defaultTestConfig(), recs)
	if res.Instructions != 2 {
		t.Fatalf("committed %d of 2 at EOF", res.Instructions)
	}
	// FP divide latency is 16: cycles must cover it.
	if res.Cycles < 16 {
		t.Errorf("cycles %d < divide latency", res.Cycles)
	}
}

func TestPhysRegPressureStalls(t *testing.T) {
	// 33+ in-flight dests need more physical registers than architectural
	// state provides; with a long-latency producer blocking commit, the
	// free list drains and dispatch must stall rather than misbehave.
	var recs []trace.Rec
	recs = append(recs, trace.Rec{PC: 0x100, Op: trace.OpIntDiv, Dst: 1, Src1: 30, Src2: 31})
	for i := 0; i < 60; i++ {
		recs = append(recs, trace.Rec{PC: uint64(0x104 + 4*i), Op: trace.OpIntALU, Dst: uint8(2 + i%20), Src1: 30, Src2: 31})
	}
	res := runRecs(t, defaultTestConfig(), recs)
	if res.Instructions != uint64(len(recs)) {
		t.Fatalf("committed %d of %d", res.Instructions, len(recs))
	}
}

func TestResultZeroSafe(t *testing.T) {
	var r Result
	if r.IPC() != 0 || r.MissRatio() != 0 {
		t.Error("zero Result ratios should be 0")
	}
}

func TestFiniteL2AddsPenalty(t *testing.T) {
	// Serialized cold misses over a footprint larger than L2: with a
	// finite L2, every L1 miss also misses L2 and pays the extra penalty,
	// so the run takes longer than with the default infinite L2.
	mk := func(withL2 bool) Result {
		cfg := defaultTestConfig()
		if withL2 {
			l2 := cache.Config{Size: 64 << 10, BlockSize: 32, Ways: 2, WriteBack: true, WriteAllocate: true}
			cfg.L2 = &l2
		}
		var recs []trace.Rec
		for i := 0; i < 400; i++ {
			recs = append(recs,
				trace.Rec{PC: 0x9000, Op: trace.OpLoad, Addr: uint64(0x800000 + 32*i), Dst: 6, Src1: 6},
				trace.Rec{PC: 0x9004, Op: trace.OpIntALU, Dst: 6, Src1: 6, Src2: 6},
			)
		}
		return runRecs(t, cfg, recs)
	}
	inf := mk(false)
	fin := mk(true)
	if fin.L2Misses == 0 {
		t.Fatal("finite L2 recorded no misses on a cold streaming footprint")
	}
	if fin.Cycles <= inf.Cycles {
		t.Errorf("finite-L2 run (%d cycles) not slower than infinite (%d)", fin.Cycles, inf.Cycles)
	}
	if inf.L2Misses != 0 {
		t.Error("infinite L2 must not record L2 misses")
	}
}

func TestFiniteL2HitsAreCheap(t *testing.T) {
	// A working set that misses L1 (conflicts) but fits L2 easily: the
	// finite-L2 run should be no slower than the infinite-L2 baseline.
	cfg := defaultTestConfig()
	l2 := cache.Config{Size: 256 << 10, BlockSize: 32, Ways: 4, WriteBack: true, WriteAllocate: true}
	cfg.L2 = &l2
	var recs []trace.Rec
	for r := 0; r < 200; r++ {
		for i := 0; i < 6; i++ { // 6-way conflict in a 2-way L1 set
			recs = append(recs, trace.Rec{
				PC: 0xA000, Op: trace.OpLoad, Addr: uint64(0x100000 + 8192*i), Dst: 6, Src1: 6,
			})
		}
	}
	res := runRecs(t, cfg, recs)
	// After the cold pass, everything hits L2: misses recorded only once
	// per distinct line.
	if res.L2Misses > 6 {
		t.Errorf("L2Misses = %d, want <= 6 distinct lines", res.L2Misses)
	}
}

func TestStallCountersPopulated(t *testing.T) {
	// A mispredict-heavy stream must show branch stall pressure.
	var recs []trace.Rec
	taken := false
	for i := 0; i < 2000; i++ {
		taken = !taken
		recs = append(recs, trace.Rec{PC: 0xB000, Op: trace.OpBranch, Taken: taken, Src1: 1})
	}
	res := runRecs(t, defaultTestConfig(), recs)
	if res.StallBranch == 0 {
		t.Error("alternating branches produced no front-end stall accounting")
	}
}

func TestBusContentionVisible(t *testing.T) {
	// Parallel independent misses: the shared 4-cycle-per-line bus must
	// show queueing.
	var recs []trace.Rec
	for i := 0; i < 2000; i++ {
		recs = append(recs, trace.Rec{
			PC: uint64(0xC000 + 4*(i%8)), Op: trace.OpLoad,
			Addr: uint64(0xE00000 + 32*i), Dst: uint8(1 + i%8), Src1: 30,
		})
	}
	res := runRecs(t, defaultTestConfig(), recs)
	if res.BusBusyWait == 0 {
		t.Error("streaming misses should queue on the line-fill bus")
	}
}

func TestMSHRLockupVisible(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.MSHRs = 1
	var recs []trace.Rec
	for i := 0; i < 2000; i++ {
		recs = append(recs, trace.Rec{
			PC: uint64(0xD000 + 4*(i%8)), Op: trace.OpLoad,
			Addr: uint64(0xF00000 + 32*i), Dst: uint8(1 + i%8), Src1: 30,
		})
	}
	res := runRecs(t, cfg, recs)
	if res.MSHRFullStalls == 0 {
		t.Error("1-MSHR configuration never locked up on a miss stream")
	}
}
