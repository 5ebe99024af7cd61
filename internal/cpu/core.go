package cpu

import (
	"repro/internal/cache"
	"repro/internal/mshr"
	"repro/internal/trace"
)

// entry states.
const (
	stDispatched uint8 = iota
	stIssued
)

const never = ^uint64(0)

// robEntry is one in-flight instruction.
type robEntry struct {
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
}

// Result summarises one simulation run.
type Result struct {
	Instructions uint64
	Cycles       uint64
	// Loads/LoadMisses give the load miss ratio the paper's tables report
	// (forwarded loads count as hits: they never reach the cache).
	Loads      uint64
	LoadMisses uint64
	Forwarded  uint64
	// L2Misses counts finite-L2 misses (0 with the default infinite L2).
	L2Misses uint64

	BranchAccuracy float64
	APredHitRate   float64
	CacheStats     cache.Stats
	MSHRFullStalls uint64
	BusBusyWait    uint64

	// Dispatch-stall breakdown (cycles-ish counters of blocked slots).
	StallROBFull uint64
	StallNoPhys  uint64
	StallBranch  uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// MissRatio returns the load miss ratio in percent-friendly [0,1] form.
func (r Result) MissRatio() float64 {
	if r.Loads == 0 {
		return 0
	}
	return float64(r.LoadMisses) / float64(r.Loads)
}

// Core is one simulated processor instance.
type Core struct {
	cfg   Config
	cache *cache.Cache
	l2    *cache.Cache // nil => infinite L2 (the paper's assumption)
	mshrs *mshr.File
	bus   *mshr.Bus
	bht   *BranchPredictor
	apred *AddressPredictor
	fus   *fuPool

	// Register rename state: architectural -> physical maps and ready
	// times per physical register.
	intMap, fpMap     []int16
	intReady, fpReady []uint64
	intFree, fpFree   []int16

	rob        []robEntry
	robHead    int
	robTail    int
	robCount   int
	clock      uint64
	fetchStall uint64 // no dispatch until clock >= fetchStall
	stalledOn  int    // ROB slot of unresolved mispredicted branch, -1 none

	// waiting lists the ROB slots dispatched but not yet issued, oldest
	// first: issue walks it instead of the whole ROB (the ready list of
	// SimpleScalar's sim-outorder).
	waiting []int
	// stores is a ring of the ROB slots of in-ROB stores, oldest first,
	// storeCount of them from storeHead: a load checks only these for
	// older stores to its word.
	stores     []int
	storeHead  int
	storeCount int

	// Chunked trace intake: records are pulled from src in batches into
	// chunk and consumed through chunkPos, so the per-record cost is one
	// bounds check instead of an interface dispatch plus a Rec copy.
	src      trace.Source
	chunk    []trace.Rec
	chunkPos int
	srcEOF   bool

	res Result
}

// coreChunk is the trace intake batch size.
const coreChunk = 1024

// New builds a core from cfg.
func New(cfg Config) *Core {
	c := &Core{
		cfg:       cfg,
		cache:     cache.New(cfg.Cache),
		mshrs:     mshr.NewFile(cfg.MSHRs),
		bus:       new(mshr.Bus),
		bht:       NewBranchPredictor(bhtEntries),
		fus:       newFUPool(),
		rob:       make([]robEntry, robSize),
		waiting:   make([]int, 0, robSize),
		stores:    make([]int, robSize),
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
func (c *Core) Run(s trace.Source, maxInstrs uint64) Result {
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
func (c *Core) peek() (trace.Rec, bool) {
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

func (c *Core) consume() { c.chunkPos++ }

// dispatch renames and inserts up to width instructions into the ROB.
func (c *Core) dispatch() {
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
		e := robEntry{rec: rec, state: stDispatched, doneAt: never, src1: -1, src2: -1, dst: -1, old: -1}

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
		c.robTail = c.next(slot)
		c.robCount++
		c.waiting = append(c.waiting, slot)
		if rec.Op == trace.OpStore {
			i := c.storeHead + c.storeCount
			if i >= len(c.stores) {
				i -= len(c.stores)
			}
			c.stores[i] = slot
			c.storeCount++
		}
		c.consume()

		if e.mispredicted {
			// Trace-driven wrong-path model: stop dispatching until the
			// branch resolves.
			c.stalledOn = slot
			return
		}
	}
}

// next returns the index after i in a ring the size of the ROB (the
// ROB itself or the store ring).
func (c *Core) next(i int) int {
	i++
	if i == len(c.rob) {
		return 0
	}
	return i
}

func hasDst(op trace.Op) bool {
	return op != trace.OpStore && op != trace.OpBranch
}

// ready reports whether physical register p (class fp) is ready.
func (c *Core) ready(p int16, fp bool) bool {
	if p < 0 {
		return true
	}
	if fp {
		return c.fpReady[p] <= c.clock
	}
	return c.intReady[p] <= c.clock
}

// srcsReady checks both operands of e.
func (c *Core) srcsReady(e *robEntry) bool {
	fp := e.rec.Op.IsFP()
	// Memory and branch address operands are integer-class.
	src1FP := fp && !e.rec.Op.IsMem() && e.rec.Op != trace.OpBranch
	if !c.ready(e.src1, src1FP) {
		return false
	}
	return c.ready(e.src2, fp)
}

// issue selects up to width ready instructions in program order.  It
// walks only the waiting list and drops the entries it issues from it.
func (c *Core) issue() {
	issued := 0
	memPortsUsed := 0
	w := c.waiting
	kept := 0
	for i, slot := range w {
		if issued == width {
			kept += copy(w[kept:], w[i:])
			break
		}
		if c.issueOne(slot, memPortsUsed < memPorts) {
			issued++
			if c.rob[slot].rec.Op.IsMem() {
				memPortsUsed++
			}
			continue
		}
		w[kept] = slot
		kept++
	}
	c.waiting = w[:kept]
}

// issueOne tries to issue the waiting instruction in slot; memPort says
// whether a cache port is still free this cycle.  It reports whether
// the instruction issued.
func (c *Core) issueOne(slot int, memPort bool) bool {
	e := &c.rob[slot]
	if !c.srcsReady(e) {
		return false
	}
	switch e.rec.Op {
	case trace.OpLoad:
		return memPort && c.issueLoad(slot, e)
	case trace.OpStore:
		if !memPort {
			return false
		}
		done, ok := c.fus.tryIssue(e.rec.Op, c.clock)
		if !ok {
			return false
		}
		// Address generation only; the write is performed at commit
		// from the store buffer (write-through, §3.4).
		e.state = stIssued
		e.doneAt = done
	default:
		done, ok := c.fus.tryIssue(e.rec.Op, c.clock)
		if !ok {
			return false
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
	return true
}

// setReady marks a physical register ready at cycle t.
func (c *Core) setReady(p int16, fp bool, t uint64) {
	if fp {
		c.fpReady[p] = t
	} else {
		c.intReady[p] = t
	}
}

// issueLoad handles disambiguation, forwarding, the cache, the MSHRs and
// the bus.  It returns false if the load cannot issue this cycle.
func (c *Core) issueLoad(slot int, e *robEntry) bool {
	word := e.rec.Addr >> 3
	// Memory disambiguation: wait for any older store to the same word
	// whose address is not yet resolved or which has not issued; once the
	// youngest such store has issued, forward from it.  (This is the
	// conservative endpoint of the ARB speculation spectrum: the paper's
	// mechanism speculates and rarely squashes; we never speculate and
	// never squash, which has the same average behaviour when aliasing is
	// rare, as it is in these workloads.)
	//
	// The store ring is in age order, so the older stores are a prefix
	// of it: the scan stops at the first store younger than the load.
	age := c.age(slot)
	var forwardFrom *robEntry
	for i, s := 0, c.storeHead; i < c.storeCount; i++ {
		if c.age(c.stores[s]) > age {
			break
		}
		se := &c.rob[c.stores[s]]
		if se.rec.Addr>>3 == word {
			if se.state != stIssued {
				return false // conservative: address/data not ready yet
			}
			forwardFrom = se
		}
		s = c.next(s)
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
		e.doneAt = maxU64(inflightDone, c.clock+lat)
	case willHit:
		e.doneAt = c.clock + lat
	default:
		// Primary miss: take the MSHR the Full check above found free;
		// the line transfer occupies the bus for the final
		// lineBusCycles of the miss penalty.
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
		c.mshrs.Add(block, done)
		e.doneAt = done
	}
	e.state = stIssued
	c.setReady(e.dst, e.fpDst, e.doneAt)
	return true
}

// age returns how many entries older than slot the ROB holds.
func (c *Core) age(slot int) int {
	if slot < c.robHead {
		return slot + len(c.rob) - c.robHead
	}
	return slot - c.robHead
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// commit retires up to width completed instructions in order.
func (c *Core) commit() {
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
			c.bus.Acquire(c.clock, wordBusCycles)
			// The oldest in-ROB store is the head of the store ring.
			c.storeHead = c.next(c.storeHead)
			c.storeCount--
		}
		// Free the previous mapping of the destination register.
		if e.old >= 0 {
			if e.fpDst {
				c.fpFree = append(c.fpFree, e.old)
			} else {
				c.intFree = append(c.intFree, e.old)
			}
		}
		c.robHead = c.next(c.robHead)
		c.robCount--
		c.res.Instructions++
	}
}
