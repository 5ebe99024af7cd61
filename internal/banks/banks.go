// Package banks models parallel interleaved memory, the setting in
// which the paper's index functions were first developed (§2.1 cites
// Lawrie & Vora's prime-modulus memory, Harper & Jump's and Sohi's
// skewing schemes, and Rau's pseudo-random polynomial interleaving).
// A vector access stream is issued to B banks, each with a fixed busy
// time; the achieved bandwidth depends on how evenly the bank-selection
// function spreads the stream, exactly as the cache index function
// spreads blocks over sets.  That lineage is literal here: conventional
// (modulo), Frailong's XOR and Rau's polynomial interleaving are
// package index's placements, adapted by Indexed; only the prime
// modulus, which is not linear over GF(2), is a selector of its own.
//
// Reproducing the interleaved-memory results grounds the paper's claim
// that I-Poly functions inherit provable stride insensitivity from the
// Cydra 5 lineage.
package banks

import (
	"fmt"

	"repro/internal/index"
)

// Selector maps a word address to a bank number.
type Selector interface {
	Bank(addr uint64) int
	Banks() int
}

// Indexed selects banks with a cache placement function: bank =
// p.SetIndex(addr, 0) over p.Sets() banks.  index.NewModulo is the
// conventional interleave, an unskewed index.XORFold Frailong et al.'s
// XOR scheme [5], and a one-polynomial index.IPoly Rau's pseudo-random
// interleaving [19].
func Indexed(p index.Placement) Selector { return indexed{p} }

// indexed is the Selector Indexed returns.
type indexed struct{ p index.Placement }

// Bank implements Selector.
func (x indexed) Bank(addr uint64) int { return int(x.p.SetIndex(addr, 0)) }

// Banks implements Selector.
func (x indexed) Banks() int { return x.p.Sets() }

// Prime selects bank = addr mod p for a prime p, Lawrie & Vora's scheme
// [16].  Prime bank counts avoid power-of-two stride degeneration at the
// cost of a non-power-of-two divider.
type Prime struct {
	p int
}

// NewPrime returns a prime-modulus selector.  p must be prime.
func NewPrime(p int) *Prime {
	if p < 2 {
		panic("banks: modulus must be >= 2")
	}
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			panic(fmt.Sprintf("banks: %d is not prime", p))
		}
	}
	return &Prime{p: p}
}

// Bank implements Selector.
func (pr *Prime) Bank(addr uint64) int { return int(addr % uint64(pr.p)) }

// Banks implements Selector.
func (pr *Prime) Banks() int { return pr.p }

// Memory is a bank-conflict timing model: each bank is busy for BusyTime
// cycles per access; requests to a busy bank queue.  One request is
// issued per cycle (a single-port vector unit).
type Memory struct {
	sel  Selector
	busy []uint64 // per-bank next-free cycle
	// BusyTime is the bank occupancy per access (cycles).
	BusyTime uint64

	clock     uint64
	Requests  uint64
	Conflicts uint64 // requests that found their bank busy
	LastDone  uint64
}

// NewMemory builds an interleaved memory with the given selector and
// bank busy time.
func NewMemory(sel Selector, busyTime uint64) *Memory {
	if busyTime == 0 {
		panic("banks: busy time must be positive")
	}
	return &Memory{sel: sel, busy: make([]uint64, sel.Banks()), BusyTime: busyTime}
}

// Access issues one word access; the issue clock advances by one cycle
// per request, and the request waits if its bank is busy.
func (m *Memory) Access(addr uint64) {
	m.clock++
	m.Requests++
	b := m.sel.Bank(addr)
	start := m.clock
	if m.busy[b] > start {
		m.Conflicts++
		start = m.busy[b]
	}
	m.busy[b] = start + m.BusyTime
	if done := start + m.BusyTime; done > m.LastDone {
		m.LastDone = done
	}
}

// Bandwidth returns achieved words per cycle: requests / makespan.  The
// ideal is min(1, banks/busyTime).
func (m *Memory) Bandwidth() float64 {
	if m.LastDone == 0 {
		return 0
	}
	return float64(m.Requests) / float64(m.LastDone)
}

// ConflictRatio returns the fraction of requests that waited.
func (m *Memory) ConflictRatio() float64 {
	if m.Requests == 0 {
		return 0
	}
	return float64(m.Conflicts) / float64(m.Requests)
}
