// Grid is the single-pass multi-configuration simulation engine: one
// trace replay advances every configuration point of a design-space
// grid.  The experiment drivers use it to turn "one trace pass per
// design point" into "one trace pass per benchmark": trace decode and
// chunk iteration are paid once per chunk and shared by all
// configurations.  Each point is a Cache built by New from its Config,
// so a point's simulation is that Cache's, bit for bit, and a Grid
// takes every configuration New takes: any placement, replacement
// policy, write mode and block size, mixed freely within one spec.
package cache

import "repro/internal/trace"

// GridSpec lists the configuration points of a Grid, one Config per
// point.  Order is significant: stats are reported in spec order.
type GridSpec []Config

// Grid simulates every configuration of a GridSpec in one pass over a
// trace.  It is not safe for concurrent use.
type Grid struct {
	pts []*Cache
}

// NewGrid builds a grid over the given configuration points.  It panics
// on an empty spec and, as New does, on an invalid configuration.
func NewGrid(spec GridSpec) *Grid {
	if len(spec) == 0 {
		panic("cache: NewGrid needs at least one configuration")
	}
	g := &Grid{pts: make([]*Cache, len(spec))}
	for k, cfg := range spec {
		g.pts[k] = New(cfg)
	}
	return g
}

// Len returns the number of configuration points.
func (g *Grid) Len() int { return len(g.pts) }

// StatsAt returns a copy of point k's accumulated statistics.
func (g *Grid) StatsAt(k int) Stats { return g.pts[k].Stats() }

// ResetStats zeroes every point's statistics without disturbing cache
// contents or replacement state (the Grid analogue of Cache.ResetStats).
func (g *Grid) ResetStats() {
	for _, c := range g.pts {
		c.ResetStats()
	}
}

// Reset returns the grid to its just-constructed state, so it behaves
// bit-identically to a fresh NewGrid of the same spec, without
// reallocating the points' line stores.
func (g *Grid) Reset() {
	for _, c := range g.pts {
		c.reset()
	}
}

// AccessStream replays the load/store records of recs in order through
// every configuration point (loads as reads, stores as writes), skipping
// non-memory records, and returns the number of accesses performed per
// point.
func (g *Grid) AccessStream(recs []trace.Rec) uint64 {
	var n uint64
	for _, c := range g.pts {
		n = c.AccessStream(recs)
	}
	return n
}
