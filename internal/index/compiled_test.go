package index

import (
	"testing"

	"repro/internal/gf2"
)

// fuzzPlacement builds one of the five placement types from fuzzer
// parameters and returns it with its input width: the number of low
// block-address bits its definition reads.
func fuzzPlacement(kind, bits, vbits, polys uint8) (Placement, int) {
	m := int(bits % 31)
	switch kind % 5 {
	case 0:
		return NewModulo(m), m
	case 1:
		return NewXORFold(m, kind&8 != 0), 2 * m
	case 2:
		return NewXORShuffle(m), 2 * m
	case 3:
		m = int(bits%20) + 1
		n := min(int(polys%4)+1, gf2.CountIrreducible(m))
		v := m + 1 + int(vbits)%(64-m)
		return NewIPoly(gf2.Irreducibles(m, n), m, v), v
	default:
		return Single{}, 0
	}
}

// FuzzCompiledPlacement checks the compiled placement against its
// definition: for every placement type, set-bit count, way count and
// input width, each way's compiled index of a fuzzed address — and of
// the same address with every bit above the input width set — equals
// Placement.SetIndex.
func FuzzCompiledPlacement(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint8(0), uint8(0), uint8(2), uint64(0x12345))
	f.Add(uint8(8|1), uint8(7), uint8(0), uint8(0), uint8(2), uint64(0xdeadbeef))
	f.Add(uint8(1), uint8(20), uint8(0), uint8(0), uint8(4), ^uint64(0))
	f.Add(uint8(2), uint8(6), uint8(0), uint8(0), uint8(8), uint64(0xfff))
	f.Add(uint8(3), uint8(6), uint8(7), uint8(1), uint8(2), uint64(0x3fff))
	f.Add(uint8(3), uint8(16), uint8(60), uint8(3), uint8(4), uint64(0x0123456789abcdef))
	f.Add(uint8(4), uint8(0), uint8(0), uint8(0), uint8(32), uint64(42))
	f.Add(uint8(8|1), uint8(0), uint8(0), uint8(0), uint8(2), uint64(7)) // one-set skewed XOR fold
	f.Fuzz(func(t *testing.T, kind, bits, vbits, polys, ways uint8, addr uint64) {
		p, width := fuzzPlacement(kind, bits, vbits, polys)
		n := int(ways%8) + 1
		c := Compile(p, n)
		high := ^uint64(0) << uint(width) // 0 when width is 64
		for w := 0; w < n; w++ {
			for _, a := range []uint64{addr, addr | high, addr &^ high} {
				if got, want := c[w].Index(a), p.SetIndex(a, w); got != want {
					t.Fatalf("%s (%d sets) way %d of %d, address %#x: compiled %d, definition %d",
						p.Name(), p.Sets(), w, n, a, got, want)
				}
			}
		}
	})
}
