package hierarchy

import (
	"math"

	"repro/internal/cache"
)

// Config describes a two-level virtual-real hierarchy.
type Config struct {
	// L1 is the level-1 cache configuration.  Its placement function sees
	// VIRTUAL block addresses.
	L1 cache.Config
	// L2 is the level-2 cache configuration.  Its placement function sees
	// PHYSICAL block addresses.  L2 capacity must be >= L1 capacity for
	// Inclusion to be meaningful.
	L2 cache.Config
	// ScrambleSeed, if non-zero, randomizes virtual-to-physical page
	// assignment.
	ScrambleSeed uint64
}

// pageBits is log2 of the hierarchy's page size: 4 KB pages.
const pageBits = 12

// Stats accumulates hierarchy-level events.
type Stats struct {
	Accesses uint64
	L1Hits   uint64
	L1Misses uint64
	L2Hits   uint64
	L2Misses uint64
	// InclusionInvalidates counts L1 lines invalidated because their data
	// was replaced at L2.
	InclusionInvalidates uint64
	// Holes counts inclusion invalidations that left a usable L1 slot
	// empty (§3.3): the invalidated line was NOT the slot just refilled.
	Holes uint64
	// HoleMisses counts L1 misses on blocks that were previously evicted
	// by an inclusion invalidation (i.e. misses attributable to holes).
	HoleMisses uint64
	// AliasInvalidates counts L1 lines removed to keep at most one
	// virtual alias resident (§3.3 cause 2).
	AliasInvalidates uint64
	// ExternalInvalidates counts coherence invalidations (§3.3 cause 3).
	ExternalInvalidates uint64
}

// HoleRate returns the fraction of L2 misses that created an L1 hole —
// the quantity the paper's probabilistic model predicts (eq. ix).
func (s Stats) HoleRate() float64 {
	if s.L2Misses == 0 {
		return 0
	}
	return float64(s.Holes) / float64(s.L2Misses)
}

// TwoLevel is the virtual-real two-level cache.  It is not safe for
// concurrent use.
type TwoLevel struct {
	L1 *cache.Cache
	L2 *cache.Cache
	PT *PageTable

	blockBits int
	l2Ways    int
	stats     Stats

	// resident is the flat per-L2-frame residency index: resident[f]
	// holds vblock+1 when the virtual block vblock is L1-resident and its
	// physical image is cached in L2 frame f (= set*ways + way), or 0
	// when the frame's block has no L1 image.  It replaces the reverse
	// pointers the virtual-real protocol maintains so physical
	// invalidations can find virtual lines without reverse translation;
	// the alias-invalidation protocol guarantees at most one virtual
	// alias is L1-resident per physical block, so one word per frame
	// suffices and the structure is allocation-free at access time.
	resident []uint64
	// holed records blocks evicted from L1 by inclusion invalidations,
	// so later misses on them can be attributed to holes.
	holed map[uint64]struct{}
}

// New builds the hierarchy.  Both cache configs must share a block size.
func New(cfg Config) *TwoLevel {
	if cfg.L1.BlockSize != cfg.L2.BlockSize {
		panic("hierarchy: L1 and L2 must share a block size")
	}
	if cfg.L2.Size < cfg.L1.Size {
		panic("hierarchy: L2 must be at least as large as L1")
	}
	if cfg.L1.WriteAllocate && !cfg.L2.WriteAllocate {
		// A store miss would fill L1 while L2 declines the block, so no
		// configuration of reverse pointers can preserve Inclusion.
		panic("hierarchy: write-allocating L1 over non-allocating L2 cannot maintain Inclusion")
	}
	h := &TwoLevel{
		L1:    cache.New(cfg.L1),
		L2:    cache.New(cfg.L2),
		PT:    NewPageTable(pageBits, cfg.ScrambleSeed),
		holed: make(map[uint64]struct{}),
	}
	h.l2Ways = h.L2.Ways()
	h.resident = make([]uint64, h.L2.Sets()*h.l2Ways)
	for bs := cfg.L1.BlockSize; bs > 1; bs >>= 1 {
		h.blockBits++
	}
	// Keep the residency index in sync with natural L1 evictions.
	h.L1.OnEvict = func(vblock uint64, _ bool) {
		h.dropResident(vblock)
	}
	return h
}

// Stats returns the accumulated hierarchy statistics.
func (h *TwoLevel) Stats() Stats { return h.stats }

// vblockToPhys translates a virtual block address to its physical block
// address via the page table.
func (h *TwoLevel) vblockToPhys(vblock uint64) uint64 {
	vaddr := vblock << uint(h.blockBits)
	return h.PT.Translate(vaddr) >> uint(h.blockBits)
}

// frame flattens an L2 (set, way) location into a residency index.
func (h *TwoLevel) frame(set uint64, way int) int {
	return int(set)*h.l2Ways + way
}

// dropResident clears vblock's residency entry.  Inclusion guarantees
// the physical image of any L1-resident block is in L2, so locating it
// is one stat-free L2 lookup.
func (h *TwoLevel) dropResident(vblock uint64) {
	pblock := h.vblockToPhys(vblock)
	if w, s, ok := h.L2.Locate(pblock); ok {
		f := h.frame(s, w)
		if h.resident[f] == vblock+1 {
			h.resident[f] = 0
		}
	}
}

// Access performs a load (write=false) or store (write=true) of the
// virtual byte address.
func (h *TwoLevel) Access(vaddr uint64, write bool) {
	h.stats.Accesses++
	vblock := h.L1.Block(vaddr)

	res := h.L1.AccessBlock(vblock, write)
	if res.Hit {
		h.stats.L1Hits++
		if write && !h.L1.Config().WriteBack {
			// Write-through: the store also updates L2, whose fill (if L2
			// somehow misses) can evict and must preserve Inclusion.
			l2res := h.accessL2(vblock, true)
			alias := h.captureEvictedAlias(l2res)
			h.invalidateForInclusion(alias)
		}
		return
	}
	// L1 miss.  Note AccessBlock has already performed the L1 fill for
	// loads (and for stores when L1 allocates on write); its displacement
	// was reported through OnEvict and cleared from the residency index.
	h.stats.L1Misses++
	if _, wasHoled := h.holed[vblock]; wasHoled {
		h.stats.HoleMisses++
		delete(h.holed, vblock)
	}

	// Bring the line into L2.  Capture the L1 alias of any physical block
	// its fill displaced BEFORE the residency slot is rewritten for the
	// incoming block.
	l2res := h.accessL2(vblock, write)
	evictedAlias := h.captureEvictedAlias(l2res)

	if res.Filled && (l2res.Hit || l2res.Filled) {
		// The physical block now lives in L2 frame f.  Remove any other
		// virtual alias of it (at most one alias may be L1-resident, §3.3
		// cause 2) and record the new residency.
		f := h.frame(l2res.Set, l2res.Way)
		if prev := h.resident[f]; prev != 0 && prev != vblock+1 {
			if h.L1.Invalidate(prev - 1) {
				h.stats.AliasInvalidates++
			}
		}
		h.resident[f] = vblock + 1
	}

	// Enforce Inclusion: every physical block replaced at L2 must leave
	// L1 too.  If the invalidated line was not the slot just refilled,
	// an L1 hole has been created (§3.3 cause 1); if the refill already
	// displaced it, the residency entry was cleared by OnEvict and no
	// hole is counted — exactly the coincidence term (eq. viii) in the
	// paper's model.
	h.invalidateForInclusion(evictedAlias)
}

// captureEvictedAlias reads and clears the residency entry of the frame
// an L2 fill just replaced, returning the (vblock+1) alias or 0.
func (h *TwoLevel) captureEvictedAlias(l2res cache.Result) uint64 {
	if !l2res.EvictedValid {
		return 0
	}
	f := h.frame(l2res.Set, l2res.Way)
	alias := h.resident[f]
	h.resident[f] = 0
	return alias
}

// invalidateForInclusion drops the L1 image of a physical block evicted
// from L2, counting holes.
func (h *TwoLevel) invalidateForInclusion(alias uint64) {
	if alias == 0 {
		return
	}
	victimV := alias - 1
	if h.L1.Invalidate(victimV) {
		h.stats.InclusionInvalidates++
		h.stats.Holes++
		h.holed[victimV] = struct{}{}
	}
}

// accessL2 performs the physical L2 access for vblock.  Any block its
// fill displaced is reported in the returned Result (one fill evicts at
// most one line, so no callback plumbing is needed).
func (h *TwoLevel) accessL2(vblock uint64, write bool) cache.Result {
	pblock := h.vblockToPhys(vblock)
	res := h.L2.AccessBlock(pblock, write)
	if res.Hit {
		h.stats.L2Hits++
	} else {
		h.stats.L2Misses++
	}
	return res
}

// ExternalInvalidate models a coherence invalidation for a physical
// block arriving from another processor (§3.3 cause 3): the block is
// dropped from L2 and from any virtual alias in L1.
func (h *TwoLevel) ExternalInvalidate(pblock uint64) {
	if w, s, ok := h.L2.Locate(pblock); ok {
		f := h.frame(s, w)
		if alias := h.resident[f]; alias != 0 {
			if h.L1.Invalidate(alias - 1) {
				h.stats.ExternalInvalidates++
			}
			h.resident[f] = 0
		}
	}
	h.L2.Invalidate(pblock)
}

// CheckInclusion audits that every L1-resident block's physical image is
// present in L2, returning the number of violations (0 means Inclusion
// holds).
func (h *TwoLevel) CheckInclusion() int {
	violations := 0
	for _, vblock := range h.L1.Contents() {
		if !h.L2.Probe(h.vblockToPhys(vblock)) {
			violations++
		}
	}
	return violations
}

// ModelPH returns the paper's analytical probability (eq. ix) that an L2
// miss creates a hole at L1: P_H = (2^m1 - 1) / 2^m2, where m1 and m2
// are the L1 and L2 index bit counts.  For the paper's example (8 KB L1,
// 256 KB L2, 32 B lines, direct-mapped) P_H = 0.031.
func ModelPH(m1, m2 int) float64 {
	return (math.Pow(2, float64(m1)) - 1) / math.Pow(2, float64(m2))
}

// ModelPr returns eq. vii: the probability that data replaced at L2 is
// also present in a direct-mapped L1, 2^(m1-m2).
func ModelPr(m1, m2 int) float64 { return math.Pow(2, float64(m1-m2)) }

// ModelPd returns eq. viii: the probability that eliminating an L1 line
// to preserve Inclusion leaves a hole, (2^m1 - 1) / 2^m1.
func ModelPd(m1 int) float64 {
	p := math.Pow(2, float64(m1))
	return (p - 1) / p
}
