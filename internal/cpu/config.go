package cpu

import (
	"repro/internal/cache"
	"repro/internal/index"
)

// Config holds what the experiments vary of the processor model; the
// rest of §4's machine is fixed (see fu.go).  Defaults (via
// DefaultConfig) reproduce the paper's §4 setup.
type Config struct {
	// MSHRs bounds outstanding misses to distinct lines (8).
	MSHRs int

	// Cache is the L1 data cache configuration.
	Cache cache.Config

	// L2, if non-nil, replaces the paper's infinite L2 with a finite
	// second-level cache: L1 misses that also miss in L2 pay
	// l2MissPenalty (60) additional cycles (memory).  This is an
	// extension — the paper's Table 2 configuration assumes an infinite
	// L2.
	L2 *cache.Config

	// ExtraLoadCycles is an unconditional addition to every load's cache
	// latency.  It models §3.1 option 1 — performing address translation
	// before tag lookup (a physically indexed L1) costs an extra pipeline
	// stage on every load.
	ExtraLoadCycles uint64

	// XorInCP models the I-Poly XOR gates extending the critical path:
	// +1 cycle on every load whose line was not correctly predicted.
	XorInCP bool
	// AddrPred enables the memory address prediction scheme; a correct,
	// confident prediction hides the XOR penalty AND overlaps address
	// computation with the access, saving one cycle of hit latency.
	AddrPred bool
	// APredEntries sizes the address prediction table (1024).
	APredEntries int
}

// DefaultConfig returns the paper's baseline processor with the given L1
// data cache placement, capacity and indexing scheme.
func DefaultConfig(cacheCfg cache.Config) Config {
	return Config{MSHRs: 8, Cache: cacheCfg, APredEntries: 1024}
}

// PaperCache returns the paper's L1 data cache config: size bytes, 2-way,
// 32-byte lines, write-through, no-write-allocate, with the given
// placement (nil for conventional indexing).
func PaperCache(size int, placement index.Placement) cache.Config {
	return cache.Config{
		Size: size, BlockSize: 32, Ways: 2,
		Placement:     placement,
		Replacement:   cache.LRU,
		WriteBack:     false,
		WriteAllocate: false,
	}
}
