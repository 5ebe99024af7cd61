// Package hierarchy models the two-level virtual-real cache organization
// of Wang, Baer & Levy [25] that the paper adopts (§3.1–3.3): a
// virtually-indexed, virtually-tagged L1 whose index function may use
// address bits beyond the minimum page size, backed by a physically
// indexed L2, with Inclusion enforced by invalidating L1 lines when L2
// replaces — the mechanism that creates "holes" at L1.
package hierarchy

import (
	"repro/internal/rng"
)

// PageTable maps virtual pages to physical pages.  Physical pages are
// assigned on first touch, either sequentially or scrambled by a seeded
// generator (to decorrelate virtual and physical indices, as in a
// long-running system).  It also supports virtual aliases: distinct
// virtual pages sharing one physical page.
type PageTable struct {
	pageBits int
	m        map[uint64]uint64 // vpage -> ppage
	used     map[uint64]bool   // ppages handed out (scrambled only)
	next     uint64
	rnd      *rng.RNG // nil => sequential first-touch assignment
}

// NewPageTable returns a page table with 2^pageBits-byte pages.  If
// scrambleSeed is non-zero, physical page numbers are pseudo-random
// (collision-free) instead of sequential.
func NewPageTable(pageBits int, scrambleSeed uint64) *PageTable {
	if pageBits < 6 || pageBits > 30 {
		panic("hierarchy: page bits out of range")
	}
	pt := &PageTable{pageBits: pageBits, m: make(map[uint64]uint64)}
	if scrambleSeed != 0 {
		pt.rnd = rng.New(scrambleSeed)
		pt.used = make(map[uint64]bool)
	}
	return pt
}

// PageBits returns log2 of the page size.
func (pt *PageTable) PageBits() int { return pt.pageBits }

// PageSize returns the page size in bytes.
func (pt *PageTable) PageSize() int { return 1 << uint(pt.pageBits) }

// Translate maps a virtual byte address to its physical byte address,
// allocating a physical page on first touch.
func (pt *PageTable) Translate(vaddr uint64) uint64 {
	vpage := vaddr >> uint(pt.pageBits)
	ppage, ok := pt.m[vpage]
	if !ok {
		ppage = pt.allocate()
		pt.m[vpage] = ppage
	}
	return ppage<<uint(pt.pageBits) | vaddr&(1<<uint(pt.pageBits)-1)
}

// allocate returns a fresh physical page number.
func (pt *PageTable) allocate() uint64 {
	if pt.rnd == nil {
		p := pt.next
		pt.next++
		return p
	}
	// Scrambled: skip pages already handed out.  The used set is small
	// relative to a 2^34 page space, so retries are rare.  A page stays
	// used even if AddAlias later remaps the virtual page that held it.
	for {
		p := pt.rnd.Uint64() & (1<<34 - 1)
		if !pt.used[p] {
			pt.used[p] = true
			return p
		}
	}
}

// AddAlias maps virtual page vpage2 to the same physical page as vpage1
// (allocating vpage1's page if needed).  This is the §3.3 "two segments
// at distinct virtual addresses which map to the same physical address"
// scenario.
func (pt *PageTable) AddAlias(vpage1, vpage2 uint64) {
	p, ok := pt.m[vpage1]
	if !ok {
		p = pt.allocate()
		pt.m[vpage1] = p
	}
	pt.m[vpage2] = p
}

// Mapped returns the number of mapped virtual pages.
func (pt *PageTable) Mapped() int { return len(pt.m) }
