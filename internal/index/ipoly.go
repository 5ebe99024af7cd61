package index

import (
	"fmt"

	"repro/internal/gf2"
)

// IPoly implements the paper's irreducible-polynomial-modulus placement
// (§2.1.1): the set index for way k is A(x) mod P_k(x), where A(x) is the
// polynomial whose coefficients are the low v bits of the block address
// and P_k is a degree-m polynomial.  With a single shared polynomial the
// scheme is "a2-Hp"; with a distinct polynomial per way it is the skewed
// "a2-Hp-Sk" variant.
//
// Each index bit is the XOR of a fixed subset of address bits, so the
// whole function is a bank of per-way precomputed gf2.BitMatrix values.
type IPoly struct {
	polys []gf2.Poly
	mats  []*gf2.BitMatrix
	bitsN int
}

// NewIPoly returns an I-Poly placement over 2^bits sets consuming the low
// vbits bits of the block address.  One matrix is built per entry of
// polys; way k uses polys[k % len(polys)].  Every polynomial must have
// degree == bits.  vbits must satisfy bits < vbits <= 64 (the paper
// requires v > m for the scheme to differ from conventional placement).
func NewIPoly(polys []gf2.Poly, bits, vbits int) *IPoly {
	checkBits(bits)
	if len(polys) == 0 {
		panic("index: NewIPoly needs at least one polynomial")
	}
	if vbits <= bits || vbits > 64 {
		panic(fmt.Sprintf("index: vbits %d must be in (%d, 64]", vbits, bits))
	}
	ip := &IPoly{
		polys: append([]gf2.Poly(nil), polys...),
		bitsN: bits,
	}
	for _, p := range polys {
		if p.Degree() != bits {
			panic(fmt.Sprintf("index: polynomial %v has degree %d, want %d", p, p.Degree(), bits))
		}
		ip.mats = append(ip.mats, gf2.NewModMatrix(p, vbits))
	}
	return ip
}

// NewIPolyDefault returns an I-Poly placement using the first `ways`
// irreducible polynomials of degree bits (one per way, skewed) over
// vbits address bits.  With ways == 1 the placement is unskewed.
func NewIPolyDefault(ways, bits, vbits int) *IPoly {
	return NewIPoly(gf2.Irreducibles(bits, ways), bits, vbits)
}

// SetIndex implements Placement.
func (ip *IPoly) SetIndex(block uint64, way int) uint64 {
	m := ip.mats[way%len(ip.mats)]
	return m.Apply(block)
}

// Sets implements Placement.
func (ip *IPoly) Sets() int { return 1 << uint(ip.bitsN) }

// Skewed implements Placement.
func (ip *IPoly) Skewed() bool { return len(ip.polys) > 1 }

// Name implements Placement.
func (ip *IPoly) Name() string {
	if ip.Skewed() {
		return "a2-Hp-Sk"
	}
	return "a2-Hp"
}

// Polys returns the modulus polynomials, one per way group.
func (ip *IPoly) Polys() []gf2.Poly { return append([]gf2.Poly(nil), ip.polys...) }

// MaxFanIn returns the widest XOR gate over all ways' matrices; the paper
// reports <= 5 inputs for its configurations (§3.4).
func (ip *IPoly) MaxFanIn() int {
	max := 0
	for _, m := range ip.mats {
		if f := m.MaxFanIn(); f > max {
			max = f
		}
	}
	return max
}

// Matrix returns the bit matrix used by the given way.
func (ip *IPoly) Matrix(way int) *gf2.BitMatrix { return ip.mats[way%len(ip.mats)] }
