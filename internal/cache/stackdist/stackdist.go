// Package stackdist is the single-pass all-associativities simulation
// engine: one trace replay produces the LRU miss counts of EVERY cache
// built from one index function and set count, at every associativity
// up to a configured maximum — the stack-distance (reuse-distance)
// algorithm of Mattson, Gecsei, Slutz and Traiger (1970), in the
// per-set form Hill and Smith (1989) use for set-associative caches.
//
// Where cache.Grid collapsed the configuration dimension (N explicit
// design points advanced per trace chunk), stackdist collapses the size
// dimension: an Engine holds one truncated LRU stack per cache set, and
// each access's stack position d says at once that the access hits in
// every cache with more than d ways and misses in every cache with d or
// fewer.  Histogramming positions therefore yields, after one pass, the
// exact cache.Stats of maxWays caches for roughly the cost of
// simulating one.  Sizes at a fixed associativity come from running a
// Family of engines over a ladder of set counts — still one trace
// decode, shared by all of them — and the unbounded fully-associative
// curve comes from Mattson, which computes reuse distances with an
// order-statistic counting tree (Bennett & Kruskal) in O(log n).
//
// Exactness, not approximation: Engine reproduces the single-cache
// engine bit for bit (see the differential and fuzz tests) for
// non-skewed placements under LRU with the paper's write-through
// non-allocating store semantics.  The subtle case is a store hit,
// which refreshes a line's recency without moving anything: because a
// block's stack position never decreases between its own fills, every
// store to a resident block is seen by exactly the caches that hold it,
// so last-touch time remains a single priority valid for every
// associativity and the generalized stack update (victim cascade) stays
// a one-metric scan.  Skewed placements have no stack property and stay
// on cache.Grid; non-LRU replacement policies and write-back or
// write-allocate caches run on cache.Cache.
package stackdist

import "repro/internal/index"

// Config describes one Engine: the shared geometry and index function
// of the cache family whose whole associativity range is simulated.
type Config struct {
	// Sets is the number of cache sets (power of two).  Every simulated
	// cache of the family has this set count; associativity varies.
	Sets int
	// BlockSize is the line size in bytes (power of two).
	BlockSize int
	// MaxWays is the largest associativity tracked.  StatsAt answers for
	// every ways in [1, MaxWays]; deeper reuse is a miss everywhere.
	MaxWays int
	// Placement maps block addresses to set indices.  It must be
	// non-skewed (the stack property does not survive per-way indices).
	// If nil, a conventional modulo placement over Sets is used.
	Placement index.Placement
}

// Curve is one whole miss-ratio curve — the load and total miss ratios
// of an LRU cache family as a function of total size, at a fixed
// associativity and indexing scheme.  It is the result type the curves
// experiment serializes; all slices are parallel and sizes ascend.
type Curve struct {
	// Scheme is the index-scheme label in the paper's notation ("a2",
	// "a2-Hx", "a2-Hp", "fa").
	Scheme string `json:"scheme"`
	// Ways is the associativity shared by every point of the curve (0
	// for the fully-associative Mattson curve, where ways equals the
	// block capacity).
	Ways int `json:"ways"`
	// BlockSize is the line size in bytes.
	BlockSize int `json:"block_size"`
	// SizesBytes are the cache capacities of the curve's points.
	SizesBytes []int64 `json:"sizes_bytes"`
	// ReadMissPct is the load miss ratio (%) at each size — the metric
	// the paper's tables report.
	ReadMissPct []float64 `json:"read_miss_pct"`
	// MissPct is the overall miss ratio (%) at each size.
	MissPct []float64 `json:"miss_pct"`
}

// Len returns the number of points on the curve.
func (c Curve) Len() int { return len(c.SizesBytes) }
