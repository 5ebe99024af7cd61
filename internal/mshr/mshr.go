// Package mshr models the lockup-free miss handling of the paper's L1
// data cache (Kroft [14]): a file of miss status holding registers that
// allows up to N outstanding misses to distinct cache lines, with
// secondary misses to an in-flight line merged into the existing entry,
// plus the 64-bit L1–L2 bus on which a 32-byte line transfer occupies
// four cycles (§4).
package mshr

// File is a set of MSHRs.  Times are in CPU cycles; the caller supplies
// the current cycle on every operation.  The zero value is not usable;
// call NewFile.
type File struct {
	// entries holds the live misses in no particular order; its
	// capacity is the file's entry count.
	entries []entry

	// FullStalls counts requests rejected because the file was full.
	FullStalls uint64
}

// entry is one outstanding miss.
type entry struct {
	block, done uint64 // block address, completion cycle
}

// NewFile returns an MSHR file with the given number of entries.  The
// paper's configuration uses 8.
func NewFile(capacity int) *File {
	if capacity <= 0 {
		panic("mshr: capacity must be positive")
	}
	return &File{entries: make([]entry, 0, capacity)}
}

// Lookup returns the completion cycle of an in-flight miss on block, if
// any: a secondary miss merges with it and waits for that cycle.
func (f *File) Lookup(now, block uint64) (completion uint64, ok bool) {
	f.retire(now)
	for _, e := range f.entries {
		if e.block == block {
			return e.done, true
		}
	}
	return 0, false
}

// Full reports whether the file has no free entry at the given cycle.
func (f *File) Full(now uint64) bool {
	f.retire(now)
	return len(f.entries) == cap(f.entries)
}

// NoteFullStall lets a caller that pre-checked Full and deferred its
// request record the lockup in the stall statistics.
func (f *File) NoteFullStall() { f.FullStalls++ }

// Add takes an entry for a primary miss on block that completes at
// cycle done.  The caller has found at the same cycle that Lookup has no
// entry for block and that the file is not Full; Add panics on a full
// file.
func (f *File) Add(block, done uint64) {
	if len(f.entries) == cap(f.entries) {
		panic("mshr: Add on a full file")
	}
	f.entries = append(f.entries, entry{block, done})
}

// retire drops entries whose completion cycle has passed, compacting
// the survivors in place.
func (f *File) retire(now uint64) {
	n := 0
	for _, e := range f.entries {
		if e.done > now {
			f.entries[n] = e
			n++
		}
	}
	f.entries = f.entries[:n]
}

// Bus models a single shared bus: a transaction requested at cycle t
// starts at max(t, free) and holds the bus for its own number of
// cycles.  The paper's 64-bit L1–L2 bus carries a 32-byte line in 4
// cycles and a write-through word in 1.  The zero value is an idle bus.
type Bus struct {
	free uint64 // first cycle the bus is idle

	// BusyWait accumulates cycles transactions spent queued behind
	// earlier ones.
	BusyWait uint64
}

// Acquire schedules a transaction requested at cycle now that holds the
// bus for cycles cycles, and returns the cycle the transfer completes.
func (b *Bus) Acquire(now, cycles uint64) (done uint64) {
	start := now
	if b.free > start {
		b.BusyWait += b.free - start
		start = b.free
	}
	b.free = start + cycles
	return b.free
}
