package gf2

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestDegree(t *testing.T) {
	cases := []struct {
		p    Poly
		want int
	}{
		{0, -1},
		{1, 0},
		{X, 1},
		{0b1011, 3},
		{1 << 63, 63},
	}
	for _, c := range cases {
		if got := c.p.Degree(); got != c.want {
			t.Errorf("Degree(%#x) = %d, want %d", uint64(c.p), got, c.want)
		}
	}
}

func TestCoeff(t *testing.T) {
	p := Poly(0b1011) // x^3 + x + 1
	want := []int{1, 1, 0, 1, 0}
	for i, w := range want {
		if got := p.Coeff(i); got != w {
			t.Errorf("Coeff(%d) = %d, want %d", i, got, w)
		}
	}
	if p.Coeff(-1) != 0 || p.Coeff(64) != 0 {
		t.Error("out-of-range Coeff should be 0")
	}
}

func TestAddIsXOR(t *testing.T) {
	if got := Poly(0b1100).Add(0b1010); got != 0b0110 {
		t.Errorf("Add = %#b, want 0b0110", uint64(got))
	}
}

func TestMulKnown(t *testing.T) {
	// (x+1)(x+1) = x^2 + 1 over GF(2)
	if got := Poly(0b11).Mul(0b11); got != 0b101 {
		t.Errorf("(x+1)^2 = %v, want x^2 + 1", got)
	}
	// (x^2+x+1)(x+1) = x^3 + 1
	if got := Poly(0b111).Mul(0b11); got != 0b1001 {
		t.Errorf("got %v, want x^3 + 1", got)
	}
}

func TestDivModIdentity(t *testing.T) {
	f := func(a, b uint32) bool {
		p := Poly(a)
		q := Poly(b)
		if q == 0 {
			return true
		}
		quo, rem := p.DivMod(q)
		if rem != 0 && rem.Degree() >= q.Degree() {
			return false
		}
		return quo.Mul(q).Add(rem) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivModByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DivMod by zero did not panic")
		}
	}()
	Poly(5).DivMod(0)
}

func TestMulModMatchesMulThenMod(t *testing.T) {
	f := func(a, b uint16, m uint16) bool {
		mp := Poly(m) | 1<<15 // force degree 15 so Mul cannot overflow
		p, q := Poly(a), Poly(b)
		return p.MulMod(q, mp) == p.Mul(q).Mod(mp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulCommutesAndDistributes(t *testing.T) {
	comm := func(a, b uint32) bool {
		return Poly(a).Mul(Poly(b)) == Poly(b).Mul(Poly(a))
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	dist := func(a, b, c uint16) bool {
		p, q, r := Poly(a), Poly(b), Poly(c)
		return p.Mul(q.Add(r)) == p.Mul(q).Add(p.Mul(r))
	}
	if err := quick.Check(dist, nil); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

func TestExpMod(t *testing.T) {
	m := Poly(0b10011) // x^4 + x + 1, primitive
	// x^15 = 1 in GF(16) represented mod a primitive degree-4 polynomial.
	if got := X.ExpMod(15, m); got != One {
		t.Errorf("x^15 mod (x^4+x+1) = %v, want 1", got)
	}
	if got := X.ExpMod(0, m); got != One {
		t.Errorf("x^0 = %v, want 1", got)
	}
	// Orders 1..14 must not hit 1 (primitivity).
	for e := uint64(1); e < 15; e++ {
		if X.ExpMod(e, m) == One {
			t.Errorf("x^%d = 1 mod primitive degree-4 poly; order too small", e)
		}
	}
}

func TestGCD(t *testing.T) {
	// gcd(x^2+1, x+1) = x+1 since x^2+1 = (x+1)^2
	if got := GCD(0b101, 0b11); got != 0b11 {
		t.Errorf("GCD = %v, want x + 1", got)
	}
	if got := GCD(0, 0); got != 0 {
		t.Errorf("GCD(0,0) = %v, want 0", got)
	}
	if got := GCD(0b1011, 0); got != 0b1011 {
		t.Errorf("GCD(p,0) = %v, want p", got)
	}
}

func TestGCDDividesBoth(t *testing.T) {
	f := func(a, b uint32) bool {
		p, q := Poly(a), Poly(b)
		g := GCD(p, q)
		if g == 0 {
			return p == 0 && q == 0
		}
		return p.Mod(g) == 0 && q.Mod(g) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// parseTerms inverts Poly.String: "0", or terms "x^k", "x" and "1"
// joined by " + ", each exponent at most once.
func parseTerms(s string) (Poly, error) {
	if s == "0" {
		return 0, nil
	}
	var p Poly
	for _, term := range strings.Split(s, " + ") {
		k := 0
		switch {
		case term == "1":
		case term == "x":
			k = 1
		default:
			if _, err := fmt.Sscanf(term, "x^%d", &k); err != nil || k < 2 || k > 63 {
				return 0, fmt.Errorf("bad term %q", term)
			}
		}
		if p&(One<<uint(k)) != 0 {
			return 0, fmt.Errorf("repeated term %q", term)
		}
		p |= One << uint(k)
	}
	return p, nil
}

func TestStringAndParseRoundTrip(t *testing.T) {
	cases := []Poly{0, 1, X, 0b1011, 0x211 /* x^9 + x^4 + 1 */, 1 << 20}
	for _, p := range cases {
		s := p.String()
		got, err := parseTerms(s)
		if err != nil {
			t.Errorf("parseTerms(%q): %v", s, err)
			continue
		}
		if got != p {
			t.Errorf("round trip %q: got %#x, want %#x", s, uint64(got), uint64(p))
		}
	}
}

func TestStringKnown(t *testing.T) {
	if got := Poly(0b1011).String(); got != "x^3 + x + 1" {
		t.Errorf("String = %q", got)
	}
	if got := Poly(0).String(); got != "0" {
		t.Errorf("zero String = %q", got)
	}
}

func TestWeight(t *testing.T) {
	if got := Poly(0b1011).Weight(); got != 3 {
		t.Errorf("Weight = %d, want 3", got)
	}
}
