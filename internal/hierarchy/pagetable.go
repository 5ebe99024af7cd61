// Package hierarchy models the two-level virtual-real cache organization
// of Wang, Baer & Levy [25] that the paper adopts (§3.1–3.3): a
// virtually-indexed, virtually-tagged L1 whose index function may use
// address bits beyond the minimum page size, backed by a physically
// indexed L2, with Inclusion enforced by invalidating L1 lines when L2
// replaces — the mechanism that creates "holes" at L1 (§3.3's first
// cause, the one the holes experiment measures).  Every virtual page
// maps to a physical page of its own, so the model has no virtual
// aliases (§3.3's second cause), and no other processor invalidates
// its lines (the third).
package hierarchy

import (
	"repro/internal/rng"
)

// PageTable maps virtual pages to physical pages.  Physical pages are
// assigned on first touch, either sequentially or scrambled by a seeded
// generator (to decorrelate virtual and physical indices, as in a
// long-running system).  No two virtual pages share a physical page.
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
	// relative to a 2^34 page space, so retries are rare.
	for {
		p := pt.rnd.Uint64() & (1<<34 - 1)
		if !pt.used[p] {
			pt.used[p] = true
			return p
		}
	}
}
