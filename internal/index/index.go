// Package index provides cache set-index (placement) functions: the
// conventional modulo-power-of-two function, the XOR-folding functions of
// the skewed-associative cache (Seznec, ISCA 1993), and the I-Poly
// irreducible-polynomial-modulus functions that are the subject of the
// paper.  A placement function maps a block address to a set index,
// possibly differently in each way (a "skewed" placement).
//
// The block address is the memory address with the block-offset bits
// already stripped; placement functions never see the offset bits.
package index

import "fmt"

// Placement maps block addresses to set indices.  Implementations must be
// deterministic, safe for concurrent readers, and linear over GF(2) in
// the block address (SetIndex(a^b, w) == SetIndex(a, w)^SetIndex(b, w)):
// the simulation engines run every placement through Compile.
type Placement interface {
	// SetIndex returns the set index, in [0, Sets()), for the given block
	// address when placing into the given way.  Non-skewed placements
	// ignore way.
	SetIndex(block uint64, way int) uint64
	// Sets returns the number of cache sets the function indexes.
	Sets() int
	// Skewed reports whether different ways may use different indices for
	// the same block.
	Skewed() bool
	// Name returns a short scheme label (paper notation where one exists,
	// e.g. "a2", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk").
	Name() string
}

// Modulo is the conventional placement function: the low m bits of the
// block address ("a2" in the paper's Figure 1 for a 2-way cache).
type Modulo struct {
	bits int
	mask uint64
}

// NewModulo returns the conventional modulo-2^bits placement.
func NewModulo(bits int) *Modulo {
	checkBits(bits)
	return &Modulo{bits: bits, mask: 1<<uint(bits) - 1}
}

// SetIndex implements Placement.
func (m *Modulo) SetIndex(block uint64, _ int) uint64 { return block & m.mask }

// Sets implements Placement.
func (m *Modulo) Sets() int { return 1 << uint(m.bits) }

// Skewed implements Placement.
func (m *Modulo) Skewed() bool { return false }

// Name implements Placement.
func (m *Modulo) Name() string { return "a2" }

// maxBits bounds the index width: 2^30 sets.
const maxBits = 30

// bitsErr reports an index width outside [0, maxBits].
func bitsErr(bits int) error {
	if bits < 0 || bits > maxBits {
		return fmt.Errorf("index: %d index bits out of range [0, %d]", bits, maxBits)
	}
	return nil
}

// checkBits panics on an index width bitsErr rejects.
func checkBits(bits int) {
	if err := bitsErr(bits); err != nil {
		panic(err)
	}
}
