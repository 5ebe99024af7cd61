package cache

import "repro/internal/trace"

// VictimCache models Jouppi's victim cache [13]: a direct-mapped (or
// set-associative) main cache backed by a small fully-associative buffer
// holding recently evicted lines.  On a main-cache miss that hits in the
// victim buffer, the lines are swapped.  The companion study [10] uses it
// as one of the conventional conflict-mitigation baselines that I-Poly
// indexing is compared against.
type VictimCache struct {
	main   *Cache
	victim *Cache
	stats  Stats
	// VictimHits counts main-cache misses satisfied by the buffer.
	VictimHits uint64
	// Demotions counts evicted main-cache lines transferred into the
	// buffer.  Demotions are internal traffic: they are accounted here,
	// not in the buffer's demand-access statistics.
	Demotions uint64
}

// NewVictimCache builds a victim-cache organization.  mainCfg describes
// the main cache; victimBlocks is the buffer capacity in lines.
func NewVictimCache(mainCfg Config, victimBlocks int) *VictimCache {
	if victimBlocks <= 0 {
		panic("cache: victim buffer must hold at least one block")
	}
	vcfg := Config{
		Size:          victimBlocks * mainCfg.BlockSize,
		BlockSize:     mainCfg.BlockSize,
		Ways:          victimBlocks,
		Replacement:   LRU,
		WriteBack:     mainCfg.WriteBack,
		WriteAllocate: true,
	}
	return &VictimCache{
		main:   New(mainCfg),
		victim: New(vcfg),
	}
}

// Access performs a read or write of the byte address.
func (v *VictimCache) Access(addr uint64, write bool) Result {
	v.stats.Accesses++
	block := v.main.Block(addr)
	res := v.main.AccessBlock(block, write)
	if res.Hit {
		v.stats.Hits++
		v.count(write, true)
		return res
	}
	// Main miss: try the victim buffer.  Note res above already performed
	// the main-cache fill (unless this was a non-allocating store), so the
	// line displaced by that fill is in res.Evicted.
	if v.victim.Probe(block) {
		if res.Filled {
			// Swap: the block is promoted into main (done by res's fill);
			// drop its buffer copy — carrying its dirty bit into main so a
			// write-back line does not lose its pending writeback — and
			// demote main's displaced line.  res already names the filled
			// main frame, so the dirty carry is a direct line write.
			if dirty, ok := v.victim.Extract(block); ok && dirty {
				v.main.lines[int(res.Set)*v.main.ways+res.Way].dirty = true
			}
			if res.EvictedValid {
				v.demote(res.Evicted, res.EvictedDirty)
			}
		} else {
			// Non-allocating store: the line stays in the buffer; touch it.
			v.victim.AccessBlock(block, write)
		}
		v.VictimHits++
		v.stats.Hits++
		v.count(write, true)
		return Result{Hit: true}
	}
	v.stats.Misses++
	v.count(write, false)
	// Miss everywhere: res already filled main (unless non-allocating
	// store); demote its victim into the buffer.
	if res.EvictedValid {
		v.demote(res.Evicted, res.EvictedDirty)
	}
	return Result{Hit: false, Filled: res.Filled}
}

// demote transfers an evicted main-cache line into the buffer, carrying
// its dirty bit.  The transfer is internal traffic: it does not perturb
// the buffer's demand hit/miss statistics (InsertBlock), and is counted
// in Demotions instead.
func (v *VictimCache) demote(block uint64, dirty bool) {
	v.victim.InsertBlock(block, dirty)
	v.Demotions++
}

// AccessStream replays the load/store records of recs in order,
// returning the number of accesses performed.
func (v *VictimCache) AccessStream(recs []trace.Rec) uint64 {
	return replayMemRecs(recs, func(addr uint64, write bool) { v.Access(addr, write) })
}

func (v *VictimCache) count(write, hit bool) {
	switch {
	case write && hit:
		v.stats.WriteHits++
	case write:
		v.stats.WriteMiss++
	case hit:
		v.stats.ReadHits++
	default:
		v.stats.ReadMisses++
	}
}

// Stats returns organization-level statistics (a victim-buffer hit counts
// as a hit).
func (v *VictimCache) Stats() Stats { return v.stats }

// MainStats exposes the inner main-cache statistics.
func (v *VictimCache) MainStats() Stats { return v.main.Stats() }

// VictimStats exposes the buffer's statistics.  Its Writebacks counter
// includes dirty demoted lines displaced from the buffer (the lost
// writebacks the demotion path must preserve); its demand counters cover
// only true accesses, not internal demotions.
func (v *VictimCache) VictimStats() Stats { return v.victim.Stats() }
