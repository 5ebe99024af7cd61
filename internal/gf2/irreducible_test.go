package gf2

import "testing"

func TestIrreducibleKnownSmall(t *testing.T) {
	irreducible := []Poly{
		0b10,      // x
		0b11,      // x + 1
		0b111,     // x^2 + x + 1
		0b1011,    // x^3 + x + 1
		0b1101,    // x^3 + x^2 + 1
		0b10011,   // x^4 + x + 1
		0b11111,   // x^4 + x^3 + x^2 + x + 1
		0b100101,  // x^5 + x^2 + 1
		0b1000011, // x^6 + x + 1
	}
	for _, p := range irreducible {
		if !Irreducible(p) {
			t.Errorf("%v should be irreducible", p)
		}
	}
	reducible := []Poly{
		0,        // zero
		1,        // unit
		0b101,    // x^2 + 1 = (x+1)^2
		0b110,    // x^2 + x = x(x+1)
		0b1001,   // x^3 + 1 = (x+1)(x^2+x+1)
		0b1111,   // x^3+x^2+x+1 = (x+1)^3... divisible by x+1
		0b10101,  // x^4+x^2+1 = (x^2+x+1)^2
		0b100001, // x^5 + 1
	}
	for _, p := range reducible {
		if Irreducible(p) {
			t.Errorf("%v should be reducible", p)
		}
	}
}

func TestIrreducibleMatchesTrialDivision(t *testing.T) {
	// Exhaustive cross-check against naive trial division up to degree 10.
	trial := func(f Poly) bool {
		n := f.Degree()
		if n <= 0 {
			return false
		}
		if n == 1 {
			return true
		}
		for d := Poly(2); d.Degree() <= n/2; d++ {
			if f.Mod(d) == 0 {
				return false
			}
		}
		return true
	}
	for f := Poly(2); f < 1<<11; f++ {
		if got, want := Irreducible(f), trial(f); got != want {
			t.Fatalf("Irreducible(%v) = %v, trial division says %v", f, got, want)
		}
	}
}

func TestCountIrreducibleMatchesNecklace(t *testing.T) {
	for n := 1; n <= 12; n++ {
		got := CountIrreducible(n)
		want := NecklaceCount(n)
		if got != want {
			t.Errorf("degree %d: counted %d irreducibles, necklace formula says %d", n, got, want)
		}
	}
}

func TestIrreduciblesOrderedAndValid(t *testing.T) {
	ps := Irreducibles(7, 5)
	if len(ps) != 5 {
		t.Fatalf("got %d polys", len(ps))
	}
	for i, p := range ps {
		if p.Degree() != 7 {
			t.Errorf("poly %d degree = %d", i, p.Degree())
		}
		if !Irreducible(p) {
			t.Errorf("poly %d (%v) not irreducible", i, p)
		}
		if i > 0 && ps[i-1] >= p {
			t.Errorf("polys not in increasing order at %d", i)
		}
	}
}

func TestPrimitiveKnown(t *testing.T) {
	// x^4 + x + 1 is primitive; x^4 + x^3 + x^2 + x + 1 is irreducible but
	// NOT primitive (x has order 5 in GF(16)).
	if !Primitive(0b10011) {
		t.Error("x^4 + x + 1 should be primitive")
	}
	if Primitive(0b11111) {
		t.Error("x^4+x^3+x^2+x+1 should not be primitive")
	}
	if Primitive(0b101) {
		t.Error("reducible polynomial cannot be primitive")
	}
}

func TestPrimitivesAreIrreducible(t *testing.T) {
	// Every primitive polynomial is irreducible, and there are
	// φ(2^8 − 1)/8 = 16 of degree 8.
	n := 0
	for p := One << 8; p < One<<9; p++ {
		if Primitive(p) {
			n++
			if !Irreducible(p) {
				t.Errorf("%v primitive but not irreducible?", p)
			}
		}
	}
	if n != 16 {
		t.Errorf("%d primitive polynomials of degree 8, want 16", n)
	}
}

func TestPaperScalePolynomials(t *testing.T) {
	// The paper's experiments use degree-7 (128-set) and degree-8 moduli
	// drawn from up to 19 address bits.  Make sure we can enumerate
	// plenty of candidates at those scales.
	if n := CountIrreducible(7); n != 18 {
		t.Errorf("degree-7 irreducible count = %d, want 18", n)
	}
	if n := CountIrreducible(8); n != 30 {
		t.Errorf("degree-8 irreducible count = %d, want 30", n)
	}
}

func TestMoebius(t *testing.T) {
	want := map[int]int{1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 12: 0, 30: -1}
	for n, w := range want {
		if got := moebius(n); got != w {
			t.Errorf("mu(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestPrimeDivisors(t *testing.T) {
	got := primeDivisors(12)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("primeDivisors(12) = %v", got)
	}
	got = primeDivisors(7)
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("primeDivisors(7) = %v", got)
	}
}
