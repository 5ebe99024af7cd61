package gf2

// Irreducibility testing via Rabin's algorithm.  A monic polynomial f of
// degree n over GF(2) is irreducible iff
//
//	x^(2^n) ≡ x (mod f), and
//	gcd(x^(2^(n/q)) − x mod f, f) = 1 for every prime divisor q of n.
//
// The paper requires irreducible moduli "for best performance" (§2.1.1);
// reducible moduli still define valid (weaker) hash functions and are
// exercised by the ablation experiments.

// primeDivisors returns the distinct prime divisors of n in ascending
// order.  n must be >= 1.
func primeDivisors(n int) []int {
	var ps []int
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			ps = append(ps, d)
			for n%d == 0 {
				n /= d
			}
		}
	}
	if n > 1 {
		ps = append(ps, n)
	}
	return ps
}

// frobenius returns x^(2^k) mod f, computed by k successive squarings.
func frobenius(k int, f Poly) Poly {
	r := X.Mod(f)
	for i := 0; i < k; i++ {
		r = r.MulMod(r, f)
	}
	return r
}

// Irreducible reports whether f is irreducible over GF(2).  Constant
// polynomials (degree <= 0) are not irreducible; degree-1 polynomials
// always are.
func Irreducible(f Poly) bool {
	n := f.Degree()
	switch {
	case n <= 0:
		return false
	case n == 1:
		return true
	}
	// Quick parity screens: an irreducible polynomial of degree >= 2 has a
	// nonzero constant term (else x divides it) and odd weight (else x+1
	// divides it, since f(1) = weight mod 2).
	if f.Coeff(0) == 0 || f.Weight()%2 == 0 {
		return false
	}
	for _, q := range primeDivisors(n) {
		h := frobenius(n/q, f).Add(X.Mod(f))
		if GCD(h, f).Degree() > 0 {
			return false
		}
	}
	return frobenius(n, f) == X.Mod(f)
}

// Primitive reports whether f is a primitive polynomial over GF(2), i.e.
// irreducible with x generating the full multiplicative group of
// GF(2^n).  Primitive moduli give I-Poly index functions their maximal
// sequence-spreading period.  f must have degree in [1, 32].
func Primitive(f Poly) bool {
	n := f.Degree()
	if n < 1 || n > 32 {
		return false
	}
	if !Irreducible(f) {
		return false
	}
	order := uint64(1)<<uint(n) - 1
	// x is primitive iff x^(order/q) != 1 for every prime divisor q of order.
	for _, q := range primeDivisorsU64(order) {
		if X.ExpMod(order/q, f) == One {
			return false
		}
	}
	return true
}

func primeDivisorsU64(n uint64) []uint64 {
	var ps []uint64
	for d := uint64(2); d*d <= n; d++ {
		if n%d == 0 {
			ps = append(ps, d)
			for n%d == 0 {
				n /= d
			}
		}
	}
	if n > 1 {
		ps = append(ps, n)
	}
	return ps
}

// Irreducibles returns the first count irreducible polynomials of the
// given degree, in increasing numeric order.  It panics if degree is
// outside [1, 32] or count exceeds the number that exist.
func Irreducibles(degree, count int) []Poly {
	if degree < 1 || degree > 32 {
		panic("gf2: Irreducibles degree out of range")
	}
	var out []Poly
	lo := One << uint(degree)
	hi := lo << 1
	for f := lo; f < hi && len(out) < count; f++ {
		if Irreducible(f) {
			out = append(out, f)
		}
	}
	if len(out) < count {
		panic("gf2: not enough irreducible polynomials of requested degree")
	}
	return out
}

// CountIrreducible returns the number of monic irreducible polynomials of
// the given degree over GF(2), by exhaustive test.  Useful for validating
// against the necklace-counting formula (1/n)·Σ_{d|n} μ(n/d)·2^d.
func CountIrreducible(degree int) int {
	if degree < 1 || degree > 24 {
		panic("gf2: CountIrreducible degree out of range")
	}
	n := 0
	lo := One << uint(degree)
	hi := lo << 1
	for f := lo; f < hi; f++ {
		if Irreducible(f) {
			n++
		}
	}
	return n
}

// NecklaceCount returns the theoretical count of monic irreducible
// polynomials of degree n over GF(2): (1/n)·Σ_{d|n} μ(n/d)·2^d.
func NecklaceCount(n int) int {
	if n < 1 {
		panic("gf2: NecklaceCount degree out of range")
	}
	sum := 0
	for d := 1; d <= n; d++ {
		if n%d != 0 {
			continue
		}
		sum += moebius(n/d) * (1 << uint(d))
	}
	return sum / n
}

// moebius returns the Möbius function μ(n).
func moebius(n int) int {
	if n == 1 {
		return 1
	}
	mu := 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			n /= d
			if n%d == 0 {
				return 0 // squared factor
			}
			mu = -mu
		}
	}
	if n > 1 {
		mu = -mu
	}
	return mu
}
