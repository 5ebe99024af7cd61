package index_test

import (
	"fmt"

	"repro/internal/index"
)

// ExampleIPoly_Matrix shows the hardware view: each index bit is an XOR
// of a few address bits, determined by the modulus polynomial.
func ExampleIPoly_Matrix() {
	ip := index.NewIPolyDefault(2, 4, 7) // 16 sets, 7 block-address bits
	for w, p := range ip.Polys() {
		fmt.Printf("way %d: P(x) = %v\n%s", w, p, ip.Matrix(w).GateDescription())
	}
	// Output:
	// way 0: P(x) = x^4 + x + 1
	// index[0] = a[0] ^ a[4]
	// index[1] = a[1] ^ a[4] ^ a[5]
	// index[2] = a[2] ^ a[5] ^ a[6]
	// index[3] = a[3] ^ a[6]
	// way 1: P(x) = x^4 + x^3 + 1
	// index[0] = a[0] ^ a[4] ^ a[5] ^ a[6]
	// index[1] = a[1] ^ a[5] ^ a[6]
	// index[2] = a[2] ^ a[6]
	// index[3] = a[3] ^ a[4] ^ a[5] ^ a[6]
}
