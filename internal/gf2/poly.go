// Package gf2 implements arithmetic on polynomials over the Galois field
// GF(2), the mathematical substrate of the I-Poly conflict-avoiding cache
// index functions described by Topham, González & González (MICRO-30,
// 1997) and by Rau ("Pseudo-Randomly Interleaved Memories", ISCA 1991).
//
// A polynomial a_k x^k + ... + a_1 x + a_0 with coefficients a_i in {0,1}
// is represented by the unsigned integer whose bit i equals a_i.  Addition
// is XOR; multiplication is carry-less; the cache index of an address A is
// the residue A(x) mod P(x) for a chosen modulus polynomial P.
package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

// Poly is a polynomial over GF(2) of degree at most 63.  Bit i of the
// underlying word is the coefficient of x^i.  The zero value is the zero
// polynomial.
type Poly uint64

// Common small polynomials.
const (
	One Poly = 0x1 // 1
	X   Poly = 0x2 // x
)

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly) Degree() int {
	if p == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(p))
}

// Coeff returns the coefficient (0 or 1) of x^i.
func (p Poly) Coeff(i int) int {
	if i < 0 || i > 63 {
		return 0
	}
	return int(uint64(p)>>uint(i)) & 1
}

// Add returns p + q over GF(2).  Addition and subtraction coincide.
func (p Poly) Add(q Poly) Poly { return p ^ q }

// Mul returns the product p*q over GF(2) (carry-less multiplication).
// The result must fit in 64 bits; callers multiplying large polynomials
// should reduce modulo another polynomial as they go (see MulMod).
func (p Poly) Mul(q Poly) Poly {
	var r Poly
	a, b := uint64(p), uint64(q)
	for b != 0 {
		if b&1 != 0 {
			r ^= Poly(a)
		}
		a <<= 1
		b >>= 1
	}
	return r
}

// DivMod returns the quotient and remainder of p divided by q over GF(2).
// It panics if q is the zero polynomial.
func (p Poly) DivMod(q Poly) (quo, rem Poly) {
	if q == 0 {
		panic("gf2: division by zero polynomial")
	}
	dq := q.Degree()
	rem = p
	for rem.Degree() >= dq {
		shift := uint(rem.Degree() - dq)
		quo ^= One << shift
		rem ^= q << shift
	}
	return quo, rem
}

// Mod returns p mod q over GF(2).
func (p Poly) Mod(q Poly) Poly {
	_, r := p.DivMod(q)
	return r
}

// MulMod returns p*q mod m without intermediate overflow, provided
// deg(m) <= 63.  It reduces after every shift, so it is safe even when
// deg(p)+deg(q) would exceed 63.
func (p Poly) MulMod(q, m Poly) Poly {
	if m == 0 {
		panic("gf2: MulMod by zero modulus")
	}
	dm := m.Degree()
	if dm == 0 {
		return 0 // everything is congruent to 0 mod a unit
	}
	a := p.Mod(m)
	b := q
	var r Poly
	for b != 0 {
		if b&1 != 0 {
			r ^= a
		}
		b >>= 1
		a <<= 1
		if a.Degree() >= dm {
			a ^= m << uint(a.Degree()-dm)
		}
	}
	return r.Mod(m)
}

// ExpMod returns p^e mod m by repeated squaring.
func (p Poly) ExpMod(e uint64, m Poly) Poly {
	if m == 0 {
		panic("gf2: ExpMod by zero modulus")
	}
	result := One.Mod(m)
	base := p.Mod(m)
	for e > 0 {
		if e&1 != 0 {
			result = result.MulMod(base, m)
		}
		base = base.MulMod(base, m)
		e >>= 1
	}
	return result
}

// GCD returns the greatest common divisor of p and q over GF(2).
// GCD(0, 0) is 0 by convention.
func GCD(p, q Poly) Poly {
	for q != 0 {
		p, q = q, p.Mod(q)
	}
	return p
}

// String renders p in conventional polynomial notation, e.g.
// "x^3 + x + 1".  The zero polynomial renders as "0".
func (p Poly) String() string {
	if p == 0 {
		return "0"
	}
	var terms []string
	for i := p.Degree(); i >= 0; i-- {
		if p.Coeff(i) == 0 {
			continue
		}
		switch i {
		case 0:
			terms = append(terms, "1")
		case 1:
			terms = append(terms, "x")
		default:
			terms = append(terms, fmt.Sprintf("x^%d", i))
		}
	}
	return strings.Join(terms, " + ")
}

// Weight returns the number of nonzero coefficients of p.
func (p Poly) Weight() int { return bits.OnesCount64(uint64(p)) }
