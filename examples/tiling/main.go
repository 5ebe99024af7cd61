// Tiling: the paper's §5 scientific-computing motivation.  Iteration-
// space tiling is supposed to keep a tile's working set in cache, but
// with conventional indexing the conflict misses depend on the matrix
// dimensions: power-of-two matrix pitches make tile rows collide, so the
// programmer must compute "conflict-free tile dimensions".  An I-Poly
// cache eliminates that analysis — tiles behave by capacity alone.
//
// This example runs a tiled matrix multiply C = A×B over matrices with a
// pathological power-of-two pitch (n = 512 doubles = 4 KB rows) through
// both caches, sweeping the tile size.
package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	const n = 128 // 128x128 doubles: 1 KB rows, 128 KB per matrix
	fmt.Printf("Tiled matmul, %dx%d doubles (%d-byte rows), 8KB 2-way caches\n\n", n, n, n*8)
	fmt.Printf("%-6s %16s %16s\n", "tile", "conventional", "I-Poly")

	for _, tile := range []int{4, 8, 16, 32} {
		conv := cache.New(cache.Config{Size: 8 << 10, BlockSize: 32, Ways: 2})
		// Skewed I-Poly over 24 address bits: 19 block-address bits.
		ipoly := cache.New(cache.Config{
			Size: 8 << 10, BlockSize: 32, Ways: 2,
			Placement: index.MustNew(index.SchemeIPolySk, 7, 2, 19),
		})
		// Bases 64 KB apart: aliased under modulo placement.
		run := func(c *cache.Cache) float64 {
			s := workload.NewTiledMatMulStream(n, tile, 0, 1<<16, 2<<16)
			for {
				r, ok := s.Next()
				if !ok {
					break
				}
				c.Access(r.Addr, r.Op == trace.OpStore)
			}
			return 100 * c.Stats().MissRatio()
		}
		fmt.Printf("%-6d %15.2f%% %15.2f%%\n", tile, run(conv), run(ipoly))
	}

	fmt.Println("\nWith I-Poly indexing the miss ratio tracks tile capacity smoothly;")
	fmt.Println("conventional indexing punishes tiles whose rows alias at the 8KB unit,")
	fmt.Println("so no tile-dimension engineering is needed (paper §5).")
}
