package stackdist

import (
	"math/bits"
	"sort"

	"repro/internal/trace"
)

// Mattson is the unbounded fully-associative form of the stack
// algorithm: it computes the exact LRU reuse distance of every access
// with an order-statistic tree, so one pass yields the miss count of a
// fully-associative LRU cache of EVERY capacity at once — the classic
// Mattson et al. (1970) curve, with the O(log n) distance counting of
// Bennett & Kruskal replacing the linear stack scan.
//
// Every access, load or store, promotes its block to the top of the
// stack and a miss fills — i.e. the allocate-on-write discipline.  A
// Mattson instance is therefore bit-identical to cache.Cache points
// built with index.Single, LRU replacement and WriteAllocate true (the
// differential tests pin this).  For the paper's write-through
// non-allocating L1 configurations use an Engine with Sets = 1 instead;
// Mattson exists for the unbounded curve, where capacity is not fixed
// in advance and the truncated per-set stacks do not apply.
//
// Internally each live block owns a time slot; the fenwick tree counts
// live slots, so the distance of a reaccess at old slot p is the number
// of live slots after p.  Slots are consumed monotonically and
// compacted when exhausted, keeping the tree logarithmic in the number
// of live blocks rather than in trace length.
type Mattson struct {
	offBits uint
	blkSize int

	pos  map[uint64]int32 // block -> current slot
	fw   *fenwick
	next int // next free slot

	// Reuse-distance histograms: loadDistAt[d] loads reused at stack
	// distance d (a hit for capacities > d blocks), plus cold counts for
	// first-touch accesses (misses at every capacity).
	loadDistAt  []uint64
	storeDistAt []uint64
	coldLoads   uint64
	coldStores  uint64
	loads       uint64
	stores      uint64
}

// mattsonMinSlots is the initial slot-table size; compaction doubles
// from the live count when it no longer fits.
const mattsonMinSlots = 1 << 16

// NewMattson returns an unbounded fully-associative stack engine for
// the given line size (a power of two).
func NewMattson(blockSize int) *Mattson {
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		panic("stackdist: BlockSize must be a positive power of two")
	}
	m := &Mattson{
		offBits: uint(bits.TrailingZeros(uint(blockSize))),
		blkSize: blockSize,
		pos:     make(map[uint64]int32),
		fw:      newFenwick(mattsonMinSlots),
	}
	return m
}

// AccessBlock records one load (write=false) or store (write=true) of
// the block address blk.
func (m *Mattson) AccessBlock(blk uint64, write bool) {
	if write {
		m.stores++
	} else {
		m.loads++
	}
	if m.next == m.fw.n {
		m.compact()
	}
	p, ok := m.pos[blk]
	if !ok {
		if write {
			m.coldStores++
		} else {
			m.coldLoads++
		}
	} else {
		// Distance = live blocks more recent than p = live − |slots ≤ p|.
		d := int(int32(len(m.pos)) - m.fw.prefix(int(p)))
		m.bump(d, write)
		m.fw.add(int(p), -1)
	}
	m.pos[blk] = int32(m.next)
	m.fw.add(m.next, 1)
	m.next++
}

func (m *Mattson) bump(d int, write bool) {
	h := &m.loadDistAt
	if write {
		h = &m.storeDistAt
	}
	for d >= len(*h) {
		*h = append(*h, 0)
	}
	(*h)[d]++
}

// compact reassigns the live blocks to slots 0..live-1 in stack order
// and rebuilds the tree, doubling the slot table when the live set has
// outgrown half of it.
func (m *Mattson) compact() {
	type bs struct {
		blk  uint64
		slot int32
	}
	live := make([]bs, 0, len(m.pos))
	for blk, slot := range m.pos {
		live = append(live, bs{blk, slot})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].slot < live[j].slot })
	n := m.fw.n
	for n < 2*len(live) || n < mattsonMinSlots {
		n *= 2
	}
	m.fw = newFenwick(n)
	for i, e := range live {
		m.pos[e.blk] = int32(i)
		m.fw.add(i, 1)
	}
	m.next = len(live)
}

// AccessStream replays the load/store records of recs in order,
// skipping non-memory records, and returns the number of accesses
// performed — the same chunk-consumer shape as Engine.AccessStream.
func (m *Mattson) AccessStream(recs []trace.Rec) uint64 {
	var n uint64
	for i := range recs {
		op := recs[i].Op
		if op != trace.OpLoad && op != trace.OpStore {
			continue
		}
		m.AccessBlock(recs[i].Addr>>m.offBits, op == trace.OpStore)
		n++
	}
	return n
}

// MissesAt returns the exact load and total miss counts of a
// fully-associative LRU cache holding capBlocks lines (allocate-on-
// write semantics; see the type comment).
func (m *Mattson) MissesAt(capBlocks int) (loadMisses, totalMisses uint64) {
	loadMisses = m.coldLoads
	storeMisses := m.coldStores
	for d := capBlocks; d < len(m.loadDistAt); d++ {
		loadMisses += m.loadDistAt[d]
	}
	for d := capBlocks; d < len(m.storeDistAt); d++ {
		storeMisses += m.storeDistAt[d]
	}
	return loadMisses, loadMisses + storeMisses
}

// Curve evaluates the miss-ratio curve at the given cache sizes
// (bytes, each a multiple of the block size), labelled with the
// fully-associative scheme name.
func (m *Mattson) Curve(sizesBytes []int64) Curve {
	c := Curve{
		Scheme:      "fa",
		Ways:        0,
		BlockSize:   m.blkSize,
		SizesBytes:  append([]int64(nil), sizesBytes...),
		ReadMissPct: make([]float64, len(sizesBytes)),
		MissPct:     make([]float64, len(sizesBytes)),
	}
	total := m.loads + m.stores
	for i, sz := range sizesBytes {
		lm, tm := m.MissesAt(int(sz / int64(m.blkSize)))
		if m.loads > 0 {
			c.ReadMissPct[i] = 100 * float64(lm) / float64(m.loads)
		}
		if total > 0 {
			c.MissPct[i] = 100 * float64(tm) / float64(total)
		}
	}
	return c
}
