package cache

import (
	"math/bits"

	"repro/internal/gf2"
	"repro/internal/index"
	"repro/internal/trace"
)

// ColumnAssociative models §3.1 option 4: a physically-tagged
// direct-mapped cache probed first at the conventional modulo index
// (using only unmapped address bits, so the probe can start before
// translation completes) and, on a first-probe miss, probed again at a
// polynomially-hashed index computed from the full address.  Lines found
// at the second probe are swapped into their conventional location so
// that subsequent accesses hit on the first probe — the paper reports a
// typical first-probe hit rate around 90 %.
//
// With Swap disabled the organization degrades to a hash-rehash cache
// [1]: the second location is still probed but lines are never promoted.
type ColumnAssociative struct {
	blockBits int
	mask      uint64
	rehashIdx index.Way // A(x) mod P(x), compiled
	lines     []caLine
	// Swap controls promotion of second-probe hits into the conventional
	// location (true = column-associative, false = hash-rehash).
	Swap bool

	stats Stats
	// FirstProbeHits and SecondProbeHits partition Stats.Hits.
	FirstProbeHits  uint64
	SecondProbeHits uint64
	// Probes counts total probe operations, for average-hit-time models.
	Probes uint64
}

type caLine struct {
	block uint64
	valid bool
}

// NewColumnAssociative builds a column-associative cache of size bytes
// with the given block size, using A(x) mod P(x) over vbits block-address
// bits as the rehash function.  P must have degree log2(size/blockSize).
func NewColumnAssociative(size, blockSize int, p gf2.Poly, vbits int) *ColumnAssociative {
	if size <= 0 || blockSize <= 0 || blockSize&(blockSize-1) != 0 || size%blockSize != 0 {
		panic("cache: bad column-associative geometry")
	}
	nLines := size / blockSize
	if nLines&(nLines-1) != 0 {
		panic("cache: line count must be a power of two")
	}
	idxBits := bits.TrailingZeros(uint(nLines))
	if p.Degree() != idxBits {
		panic("cache: rehash polynomial degree must equal index bits")
	}
	if vbits <= idxBits {
		panic("cache: vbits must exceed index bits")
	}
	// The rehash is a one-way I-Poly placement, compiled like every
	// cache's.
	rehash := index.NewIPoly([]gf2.Poly{p}, idxBits, vbits)
	return &ColumnAssociative{
		blockBits: bits.TrailingZeros(uint(blockSize)),
		mask:      uint64(nLines - 1),
		rehashIdx: index.Compile(rehash, 1)[0],
		lines:     make([]caLine, nLines),
		Swap:      true,
	}
}

// conventional returns the first-probe index.
func (c *ColumnAssociative) conventional(block uint64) uint64 { return block & c.mask }

// rehash returns the second-probe index.  Blocks whose two indices
// coincide (e.g. block 0, or any block below the set count, where the
// polynomial residue is the identity) cannot be demoted and are simply
// evicted on conflict.
func (c *ColumnAssociative) rehash(block uint64) uint64 { return c.rehashIdx.Index(block) }

// Access performs a read or write of the byte address.
func (c *ColumnAssociative) Access(addr uint64, write bool) Result {
	block := addr >> uint(c.blockBits)
	c.stats.Accesses++
	i1 := c.conventional(block)
	i2 := c.rehash(block)

	c.Probes++
	if ln := &c.lines[i1]; ln.valid && ln.block == block {
		c.FirstProbeHits++
		c.hit(write)
		return Result{Hit: true, Set: i1}
	}
	if i2 != i1 {
		c.Probes++
		if ln := &c.lines[i2]; ln.valid && ln.block == block {
			c.SecondProbeHits++
			if c.Swap {
				c.promote(block, i1, i2)
			}
			c.hit(write)
			return Result{Hit: true, Set: i2}
		}
	}

	// Miss.
	c.stats.Misses++
	if write {
		c.stats.WriteMiss++
	} else {
		c.stats.ReadMisses++
	}
	res := Result{Hit: false, Set: i1, Filled: true}
	occupant := c.lines[i1]
	if occupant.valid && i2 != i1 && c.Swap {
		// Demote the conventional occupant to ITS alternative location,
		// evicting whatever lives there, then claim the conventional slot.
		alt := c.rehash(occupant.block)
		if alt != i1 {
			if c.lines[alt].valid {
				res.Evicted = c.lines[alt].block
				res.EvictedValid = true
				c.stats.Evictions++
			}
			c.lines[alt] = occupant
		} else {
			res.Evicted = occupant.block
			res.EvictedValid = true
			c.stats.Evictions++
		}
	} else if occupant.valid {
		res.Evicted = occupant.block
		res.EvictedValid = true
		c.stats.Evictions++
	}
	c.lines[i1] = caLine{block: block, valid: true}
	c.stats.Fills++
	return res
}

// promote moves the line for block from its alternative slot i2 into its
// conventional slot i1.  Unlike the bit-flip column-associative cache,
// the polynomial rehash gives every block its OWN alternative location,
// so the displaced occupant of i1 must be demoted to rehash(occupant) —
// anywhere else and it would be unfindable by its two probes.  If the
// occupant is degenerate (its only location is i1) the promotion is
// skipped to avoid destroying it.
func (c *ColumnAssociative) promote(block uint64, i1, i2 uint64) {
	occ := c.lines[i1]
	if !occ.valid {
		c.lines[i1] = c.lines[i2]
		c.lines[i2] = caLine{}
		return
	}
	alt := c.rehash(occ.block)
	if alt == i1 {
		return // occupant can live nowhere else; leave the hit line at i2
	}
	promoted := c.lines[i2]
	if alt != i2 {
		if c.lines[alt].valid {
			c.stats.Evictions++
		}
		c.lines[i2] = caLine{}
	}
	c.lines[alt] = occ
	c.lines[i1] = promoted
}

// AccessStream replays the load/store records of recs in order,
// returning the number of accesses performed.
func (c *ColumnAssociative) AccessStream(recs []trace.Rec) uint64 {
	return replayMemRecs(recs, func(addr uint64, write bool) { c.Access(addr, write) })
}

func (c *ColumnAssociative) hit(write bool) {
	c.stats.Hits++
	if write {
		c.stats.WriteHits++
	} else {
		c.stats.ReadHits++
	}
}

// Stats returns the accumulated statistics.
func (c *ColumnAssociative) Stats() Stats { return c.stats }

// FirstProbeHitRate returns the fraction of hits satisfied on the first
// probe (the paper's ~90 % claim).
func (c *ColumnAssociative) FirstProbeHitRate() float64 {
	if c.stats.Hits == 0 {
		return 0
	}
	return float64(c.FirstProbeHits) / float64(c.stats.Hits)
}

// AvgProbesPerAccess returns the mean probe count, the basis of the
// average-hit-time penalty discussed in §3.1.
func (c *ColumnAssociative) AvgProbesPerAccess() float64 {
	if c.stats.Accesses == 0 {
		return 0
	}
	return float64(c.Probes) / float64(c.stats.Accesses)
}
