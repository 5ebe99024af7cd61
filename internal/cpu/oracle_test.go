package cpu

// The core oracle, the reference the differential tests and
// FuzzCoreVsOracle hold the out-of-order core to: the core as it was
// before issue walked a waiting list and loads scanned a store ring (it
// walks the whole ROB every cycle and re-walks it for older stores on
// every load), with the MSHR file as it was before it became a slice (a
// map ranged over on every operation).  It shares no issue,
// disambiguation or MSHR code with the production core, only Config,
// Result, the cache, the predictors, the functional units, the bus and
// the helpers hasDst and maxU64.  Of the MSHR file only the methods the
// core calls are kept.

import (
	"repro/internal/cache"
	"repro/internal/mshr"
	"repro/internal/trace"
)

// oracleEntry is one in-flight instruction.
type oracleEntry struct {
	rec    trace.Rec
	state  uint8
	doneAt uint64

	// Renamed operands: physical register ids, -1 if unused.
	src1, src2 int16
	dst, old   int16
	fpDst      bool

	// Branch bookkeeping.
	predictedTaken bool
	mispredicted   bool

	// Load bookkeeping.
	predAddr      uint64
	predConfident bool
	forwarded     bool
	wordAddr      uint64 // Addr >> 3 for store-load matching
}

// oracleCore is one simulated processor instance.
type oracleCore struct {
	cfg   Config
	cache *cache.Cache
	l2    *cache.Cache // nil => infinite L2 (the paper's assumption)
	mshrs *oracleMSHRFile
	bus   *mshr.Bus
	bht   *BranchPredictor
	apred *AddressPredictor
	fus   *fuPool

	// Register rename state: architectural -> physical maps and ready
	// times per physical register.
	intMap, fpMap     []int16
	intReady, fpReady []uint64
	intFree, fpFree   []int16

	rob        []oracleEntry
	robHead    int
	robTail    int
	robCount   int
	clock      uint64
	fetchStall uint64 // no dispatch until clock >= fetchStall
	stalledOn  int    // ROB slot of unresolved mispredicted branch, -1 none

	// Chunked trace intake: records are pulled from src in batches into
	// chunk and consumed through chunkPos, so the per-record cost is one
	// bounds check instead of an interface dispatch plus a Rec copy.
	src      trace.Source
	chunk    []trace.Rec
	chunkPos int
	srcEOF   bool

	res Result
}

// newOracleCore builds a core from cfg.
func newOracleCore(cfg Config) *oracleCore {
	c := &oracleCore{
		cfg:       cfg,
		cache:     cache.New(cfg.Cache),
		mshrs:     newOracleMSHRFile(cfg.MSHRs),
		bus:       new(mshr.Bus),
		bht:       NewBranchPredictor(bhtEntries),
		fus:       newFUPool(),
		rob:       make([]oracleEntry, robSize),
		stalledOn: -1,
	}
	if cfg.AddrPred {
		c.apred = NewAddressPredictor(cfg.APredEntries)
	}
	if cfg.L2 != nil {
		c.l2 = cache.New(*cfg.L2)
	}
	const archRegs = 32
	c.intMap = make([]int16, archRegs)
	c.fpMap = make([]int16, archRegs)
	c.intReady = make([]uint64, physInt)
	c.fpReady = make([]uint64, physFP)
	for i := 0; i < archRegs; i++ {
		c.intMap[i] = int16(i)
		c.fpMap[i] = int16(i)
	}
	for p := archRegs; p < physInt; p++ {
		c.intFree = append(c.intFree, int16(p))
	}
	for p := archRegs; p < physFP; p++ {
		c.fpFree = append(c.fpFree, int16(p))
	}
	return c
}

// Run simulates until maxInstrs instructions commit or the source ends,
// returning the result summary.
func (c *oracleCore) Run(s trace.Source, maxInstrs uint64) Result {
	c.src = s
	c.chunk = make([]trace.Rec, 0, coreChunk)
	for c.res.Instructions < maxInstrs {
		c.commit()
		c.issue()
		c.dispatch()
		c.clock++
		if c.srcEOF && c.chunkPos >= len(c.chunk) && c.robCount == 0 {
			break
		}
		// Safety valve against pathological livelock in experiments.
		if c.clock > 400*maxInstrs+100000 {
			break
		}
	}
	c.res.Cycles = c.clock
	c.res.BranchAccuracy = c.bht.Accuracy()
	if c.apred != nil {
		c.res.APredHitRate = c.apred.HitRate()
	}
	c.res.CacheStats = c.cache.Stats()
	c.res.MSHRFullStalls = c.mshrs.FullStalls
	c.res.BusBusyWait = c.bus.BusyWait
	return c.res
}

// peek returns the next trace record without consuming it, refilling
// the intake chunk from the source as needed.
func (c *oracleCore) peek() (trace.Rec, bool) {
	if c.chunkPos < len(c.chunk) {
		return c.chunk[c.chunkPos], true
	}
	if c.srcEOF {
		return trace.Rec{}, false
	}
	n, eof := c.src.ReadChunk(c.chunk[:coreChunk])
	c.chunk = c.chunk[:n]
	c.chunkPos = 0
	if eof {
		c.srcEOF = true
	}
	if n == 0 {
		return trace.Rec{}, false
	}
	return c.chunk[0], true
}

func (c *oracleCore) consume() { c.chunkPos++ }

// dispatch renames and inserts up to width instructions into the ROB.
func (c *oracleCore) dispatch() {
	if c.stalledOn >= 0 || c.clock < c.fetchStall {
		c.res.StallBranch++
		return
	}
	for n := 0; n < width; n++ {
		if c.robCount == len(c.rob) {
			c.res.StallROBFull++
			return
		}
		rec, ok := c.peek()
		if !ok {
			return
		}
		e := oracleEntry{rec: rec, state: stDispatched, doneAt: never, src1: -1, src2: -1, dst: -1, old: -1}

		// Source operands read the current rename map.
		fp := rec.Op.IsFP()
		srcMap := c.intMap
		if fp {
			srcMap = c.fpMap
		}
		switch {
		case rec.Op == trace.OpLoad, rec.Op == trace.OpStore:
			// Address registers are integer; store data too (our traces
			// treat all transferred values uniformly).
			e.src1 = c.intMap[rec.Src1%32]
		case rec.Op == trace.OpBranch:
			e.src1 = c.intMap[rec.Src1%32]
		default:
			e.src1 = srcMap[rec.Src1%32]
			e.src2 = srcMap[rec.Src2%32]
		}

		// Destination rename.
		if hasDst(rec.Op) {
			dstFP := fp // loads write the integer file in our traces
			freeList := &c.intFree
			readies := c.intReady
			amap := c.intMap
			if dstFP {
				freeList = &c.fpFree
				readies = c.fpReady
				amap = c.fpMap
			}
			if len(*freeList) == 0 {
				c.res.StallNoPhys++
				return
			}
			newP := (*freeList)[len(*freeList)-1]
			*freeList = (*freeList)[:len(*freeList)-1]
			e.dst = newP
			e.fpDst = dstFP
			e.old = amap[rec.Dst%32]
			amap[rec.Dst%32] = newP
			readies[newP] = never
		}

		// Branch prediction.  Trace-driven: the table is trained in fetch
		// order, immediately after the prediction is recorded.
		if rec.Op == trace.OpBranch {
			e.predictedTaken = c.bht.Predict(rec.PC)
			e.mispredicted = e.predictedTaken != rec.Taken
			c.bht.Update(rec.PC, rec.Taken, e.predictedTaken)
		}

		// Address prediction for loads, likewise trained in fetch order
		// (the hardware table updates as instructions flow through decode,
		// so successive in-flight instances see each other's updates).
		if rec.Op == trace.OpLoad && c.apred != nil {
			e.predAddr, e.predConfident = c.apred.Predict(rec.PC)
			c.apred.Update(rec.PC, rec.Addr, e.predAddr, e.predConfident)
		}

		slot := c.robTail
		c.rob[slot] = e
		c.robTail = (c.robTail + 1) % len(c.rob)
		c.robCount++
		c.consume()

		if e.mispredicted {
			// Trace-driven wrong-path model: stop dispatching until the
			// branch resolves.
			c.stalledOn = slot
			return
		}
	}
}

// ready reports whether physical register p (class fp) is ready.
func (c *oracleCore) ready(p int16, fp bool) bool {
	if p < 0 {
		return true
	}
	if fp {
		return c.fpReady[p] <= c.clock
	}
	return c.intReady[p] <= c.clock
}

// srcsReady checks both operands of e.
func (c *oracleCore) srcsReady(e *oracleEntry) bool {
	fp := e.rec.Op.IsFP()
	// Memory and branch address operands are integer-class.
	src1FP := fp && !e.rec.Op.IsMem() && e.rec.Op != trace.OpBranch
	if !c.ready(e.src1, src1FP) {
		return false
	}
	return c.ready(e.src2, fp)
}

// issue selects up to width ready instructions in program order.
func (c *oracleCore) issue() {
	issued := 0
	memPortsUsed := 0
	for i := 0; i < c.robCount && issued < width; i++ {
		slot := (c.robHead + i) % len(c.rob)
		e := &c.rob[slot]
		if e.state != stDispatched {
			continue
		}
		if !c.srcsReady(e) {
			continue
		}
		switch e.rec.Op {
		case trace.OpLoad:
			if memPortsUsed >= memPorts {
				continue
			}
			if !c.issueLoad(slot, e) {
				continue
			}
			memPortsUsed++
		case trace.OpStore:
			if memPortsUsed >= memPorts {
				continue
			}
			done, ok := c.fus.tryIssue(e.rec.Op, c.clock)
			if !ok {
				continue
			}
			// Address generation only; the write is performed at commit
			// from the store buffer (write-through, §3.4).
			e.state = stIssued
			e.doneAt = done
			e.wordAddr = e.rec.Addr >> 3
			memPortsUsed++
		default:
			done, ok := c.fus.tryIssue(e.rec.Op, c.clock)
			if !ok {
				continue
			}
			e.state = stIssued
			e.doneAt = done
			if e.dst >= 0 {
				c.setReady(e.dst, e.fpDst, done)
			}
			if e.rec.Op == trace.OpBranch && e.mispredicted && c.stalledOn == slot {
				c.fetchStall = done + mispredictRedirect
				c.stalledOn = -1
			}
		}
		issued++
	}
}

// setReady marks a physical register ready at cycle t.
func (c *oracleCore) setReady(p int16, fp bool, t uint64) {
	if fp {
		c.fpReady[p] = t
	} else {
		c.intReady[p] = t
	}
}

// issueLoad handles disambiguation, forwarding, the cache, the MSHRs and
// the bus.  It returns false if the load cannot issue this cycle.
func (c *oracleCore) issueLoad(slot int, e *oracleEntry) bool {
	word := e.rec.Addr >> 3
	// Memory disambiguation: wait for any older store to the same word
	// whose address is not yet resolved or which has not issued; once the
	// youngest such store has issued, forward from it.  (This is the
	// conservative endpoint of the ARB speculation spectrum: the paper's
	// mechanism speculates and rarely squashes; we never speculate and
	// never squash, which has the same average behaviour when aliasing is
	// rare, as it is in these workloads.)
	var forwardFrom *oracleEntry
	for i := 0; ; i++ {
		s := (c.robHead + i) % len(c.rob)
		if s == slot {
			break
		}
		se := &c.rob[s]
		if se.rec.Op != trace.OpStore {
			continue
		}
		if se.rec.Addr>>3 != word {
			continue
		}
		if se.state != stIssued {
			return false // conservative: address/data not ready yet
		}
		forwardFrom = se
	}

	// Resolve the cache outcome before booking structural resources so a
	// stalled load does not waste an effective-address slot.
	block := c.cache.Block(e.rec.Addr)
	inflightDone, isInflight := c.mshrs.Lookup(c.clock, block)
	willHit := c.cache.Probe(block)
	if forwardFrom == nil && !willHit && !isInflight && c.mshrs.Full(c.clock) {
		// Lockup: no MSHR for a new primary miss; retry next cycle.
		c.mshrs.NoteFullStall()
		return false
	}

	eaDone, ok := c.fus.tryIssue(trace.OpLoad, c.clock)
	if !ok {
		return false
	}
	c.res.Loads++
	if forwardFrom != nil {
		// Store-to-load forwarding: the effective address comparison does
		// not need the cache index (§3.4), so no XOR penalty applies.
		e.forwarded = true
		e.state = stIssued
		e.doneAt = maxU64(eaDone, forwardFrom.doneAt)
		c.res.Forwarded++
		c.setReady(e.dst, e.fpDst, e.doneAt)
		return true
	}

	// Compute the effective hit latency under the §3.4 timing model.
	predOK := c.apred != nil && e.predConfident && e.predAddr == e.rec.Addr
	lat := hitLatency + c.cfg.ExtraLoadCycles
	if c.cfg.XorInCP && !predOK {
		lat++ // XOR gates lengthen the critical path
	}
	if predOK && lat > 1 {
		lat-- // speculative access overlapped with address computation
	}

	// The block address is already in hand from the Probe above; use the
	// fused block-level entry point rather than re-deriving it.
	c.cache.AccessBlock(block, false)
	switch {
	case isInflight:
		// Secondary reference to an in-flight line: merge with the MSHR
		// entry and wait for the fill (a delayed hit, not a new miss).
		c.mshrs.NoteMerge()
		e.doneAt = maxU64(inflightDone, c.clock+lat)
	case willHit:
		e.doneAt = c.clock + lat
	default:
		// Primary miss: take an MSHR; the line transfer occupies the bus
		// for the final lineBusCycles of the miss penalty.
		c.res.LoadMisses++
		penalty := missPenalty
		if c.l2 != nil {
			// Finite-L2 extension: an L2 miss pays the memory penalty on
			// top of the L1-L2 transfer.
			if !c.l2.Access(e.rec.Addr, false).Hit {
				penalty += l2MissPenalty
				c.res.L2Misses++
			}
		}
		request := c.clock + lat
		transferStart := request + penalty - lineBusCycles
		done := c.bus.Acquire(transferStart, lineBusCycles)
		c.mshrs.Request(c.clock, block, done)
		e.doneAt = done
	}
	e.state = stIssued
	c.setReady(e.dst, e.fpDst, e.doneAt)
	return true
}

// commit retires up to width completed instructions in order.
func (c *oracleCore) commit() {
	for n := 0; n < width && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if e.state != stIssued || e.doneAt > c.clock {
			return
		}
		switch e.rec.Op {
		case trace.OpStore:
			// Write-through, no-write-allocate; the word transfer takes
			// the bus briefly.  Stores never stall commit (store buffer).
			c.cache.Access(e.rec.Addr, true)
			if c.l2 != nil {
				c.l2.Access(e.rec.Addr, true)
			}
			c.busWord()
		}
		// Free the previous mapping of the destination register.
		if e.old >= 0 {
			if e.fpDst {
				c.fpFree = append(c.fpFree, e.old)
			} else {
				c.intFree = append(c.intFree, e.old)
			}
		}
		c.robHead = (c.robHead + 1) % len(c.rob)
		c.robCount--
		c.res.Instructions++
	}
}

// busWord schedules a single-word write-through transfer.
func (c *oracleCore) busWord() {
	c.bus.Acquire(c.clock, wordBusCycles)
}

// oracleMSHRFile is a set of MSHRs.  Times are in CPU cycles; the
// caller supplies the current cycle on every operation.  The zero value
// is not usable; call newOracleMSHRFile.
type oracleMSHRFile struct {
	entries  map[uint64]uint64 // block -> completion cycle
	capacity int

	// Stats
	Allocations uint64 // primary misses that took an entry
	Merges      uint64 // secondary misses merged into an entry
	FullStalls  uint64 // requests rejected because the file was full
}

// newOracleMSHRFile returns an MSHR file with the given number of
// entries.  The paper's configuration uses 8.
func newOracleMSHRFile(capacity int) *oracleMSHRFile {
	if capacity <= 0 {
		panic("oracle mshr: capacity must be positive")
	}
	return &oracleMSHRFile{entries: make(map[uint64]uint64, capacity), capacity: capacity}
}

// Lookup returns the completion cycle of an in-flight miss on block, if
// any.
func (f *oracleMSHRFile) Lookup(now, block uint64) (completion uint64, ok bool) {
	f.retire(now)
	c, ok := f.entries[block]
	return c, ok
}

// Full reports whether the file has no free entry at the given cycle.
func (f *oracleMSHRFile) Full(now uint64) bool {
	f.retire(now)
	return len(f.entries) >= f.capacity
}

// NoteMerge lets a caller that resolved a secondary miss via Lookup
// record it in the merge statistics.
func (f *oracleMSHRFile) NoteMerge() { f.Merges++ }

// NoteFullStall lets a caller that pre-checked Full and deferred its
// request record the lockup in the stall statistics.
func (f *oracleMSHRFile) NoteFullStall() { f.FullStalls++ }

// Request records a miss on block at cycle now that will complete at
// cycle done.  It returns the completion cycle and whether the request
// was accepted: a secondary miss merges (returning the existing, earlier
// completion), a primary miss allocates, and a full file rejects the
// request (the cache locks up until an entry retires).
func (f *oracleMSHRFile) Request(now, block, done uint64) (completion uint64, accepted bool) {
	f.retire(now)
	if c, ok := f.entries[block]; ok {
		f.Merges++
		return c, true
	}
	if len(f.entries) >= f.capacity {
		f.FullStalls++
		return 0, false
	}
	f.entries[block] = done
	f.Allocations++
	return done, true
}

// retire drops entries whose completion cycle has passed.
func (f *oracleMSHRFile) retire(now uint64) {
	for b, c := range f.entries {
		if c <= now {
			delete(f.entries, b)
		}
	}
}
