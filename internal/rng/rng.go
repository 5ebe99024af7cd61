// Package rng provides a small, fast, deterministic pseudo-random number
// generator (splitmix64) used by every stochastic component of the
// simulator — workload generation, random replacement, page-table
// scrambling — so that all experiments are exactly reproducible from a
// seed and the module stays stdlib-only without depending on the global
// math/rand state.
package rng

// RNG is a splitmix64 generator.  The zero value is a valid generator
// seeded with 0.
type RNG struct {
	state uint64
}

// New returns a generator with the given seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n).  It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
