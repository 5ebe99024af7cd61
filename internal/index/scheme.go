package index

import (
	"fmt"

	"repro/internal/gf2"
)

// Scheme names an indexing scheme in the paper's notation.
type Scheme string

// The schemes compared in the paper's Figure 1, plus the degenerate
// single-set placement used by fully-associative caches.
const (
	SchemeModulo  Scheme = "a2"       // conventional modulo power-of-two
	SchemeXOR     Scheme = "a2-Hx"    // XOR fold, unskewed
	SchemeXORSk   Scheme = "a2-Hx-Sk" // XOR fold, skewed (skewed-associative)
	SchemeIPoly   Scheme = "a2-Hp"    // polynomial modulus, shared P
	SchemeIPolySk Scheme = "a2-Hp-Sk" // polynomial modulus, per-way P
	SchemeSingle  Scheme = "fa"       // single set (fully associative)
)

// Single is the degenerate placement with one set, used for
// fully-associative caches.
type Single struct{}

// SetIndex implements Placement.
func (Single) SetIndex(uint64, int) uint64 { return 0 }

// Sets implements Placement.
func (Single) Sets() int { return 1 }

// Skewed implements Placement.
func (Single) Skewed() bool { return false }

// Name implements Placement.
func (Single) Name() string { return "fa" }

// New constructs the named placement over 2^bits sets for a cache with
// the given number of ways.  vbits is the number of block-address bits
// available to hash functions (ignored by SchemeModulo and SchemeSingle;
// the paper uses 19 address bits, i.e. vbits = 19 - log2(blockSize)).
// Every argument may come from a user, so a geometry the scheme cannot
// index is an error, never a panic: index bits outside [0, 30]; an
// I-Poly scheme over one set, or with vbits outside (bits, 64]; or a
// skewed I-Poly cache with more ways than there are irreducible
// polynomials of degree bits.
func New(s Scheme, bits, ways, vbits int) (Placement, error) {
	polys := 1 // I-Poly moduli: one shared, or one per way when skewed
	switch s {
	case SchemeSingle:
		return Single{}, nil
	case SchemeModulo, SchemeXOR, SchemeXORSk, SchemeIPoly:
	case SchemeIPolySk:
		polys = ways
	default:
		return nil, fmt.Errorf("index: unknown scheme %q", s)
	}
	if err := bitsErr(bits); err != nil {
		return nil, err
	}
	switch s {
	case SchemeModulo:
		return NewModulo(bits), nil
	case SchemeXOR, SchemeXORSk:
		return NewXORFold(bits, s == SchemeXORSk), nil
	}
	if bits < 1 {
		return nil, fmt.Errorf("index: %s needs at least 2 sets, got 1", s)
	}
	if vbits <= bits || vbits > 64 {
		return nil, fmt.Errorf("index: %s hashes %d block-address bits (address bits minus block-offset bits), want (%d, 64]", s, vbits, bits)
	}
	if polys < 1 {
		return nil, fmt.Errorf("index: %s needs at least 1 way, got %d", s, ways)
	}
	if have := gf2.NecklaceCount(bits); polys > have {
		return nil, fmt.Errorf("index: %s with %d ways needs %d distinct irreducible polynomials of degree %d, and only %d exist",
			s, ways, polys, bits, have)
	}
	return NewIPolyDefault(polys, bits, vbits), nil
}

// MustNew is New but panics on error; for tests and static configs.
func MustNew(s Scheme, bits, ways, vbits int) Placement {
	p, err := New(s, bits, ways, vbits)
	if err != nil {
		panic(err)
	}
	return p
}

// AllSchemes lists the placement schemes in the order the paper's
// Figure 1 presents them.
func AllSchemes() []Scheme {
	return []Scheme{SchemeModulo, SchemeXORSk, SchemeIPoly, SchemeIPolySk}
}
