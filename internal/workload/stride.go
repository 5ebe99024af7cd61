package workload

import "repro/internal/trace"

// StrideStream is the Figure 1 kernel: repeated walks over a vector of
// elems 8-byte elements whose consecutive elements are separated by
// stride bytes.  Every access is a load.  With no conflicts such a walk
// uses at most elems distinct blocks, so a cache with more capacity than
// that should, after the first round, hit on every access — unless the
// placement function folds the strided addresses onto too few sets.
type StrideStream struct {
	base   uint64
	stride uint64
	elems  int
	rounds int
	i, r   int
	pc     uint64
}

// NewStrideStream returns the kernel stream.  The paper's Figure 1 uses
// elems = 64 and rounds chosen to expose steady-state behaviour.
func NewStrideStream(base, stride uint64, elems, rounds int) *StrideStream {
	if elems <= 0 || rounds <= 0 || stride == 0 {
		panic("workload: bad stride kernel parameters")
	}
	return &StrideStream{base: base, stride: stride, elems: elems, rounds: rounds, pc: 0x1000}
}

// ReadChunk implements trace.Source.
func (s *StrideStream) ReadChunk(buf []trace.Rec) (int, bool) {
	n := 0
	for n < len(buf) && s.r < s.rounds {
		buf[n] = trace.Rec{PC: s.pc, Op: trace.OpLoad, Addr: s.base + uint64(s.i)*s.stride, Dst: 1}
		n++
		s.i++
		if s.i >= s.elems {
			s.i = 0
			s.r++
		}
	}
	return n, s.r >= s.rounds
}

// Total returns the total number of accesses the stream will produce.
func (s *StrideStream) Total() int { return s.elems * s.rounds }

// TiledMatMulStream emits the address trace of a tiled matrix multiply
// C = A×B over n×n float64 matrices with the given tile size — the §5
// motivating example where tiling introduces conflict misses that depend
// on array dimensions, which an I-Poly cache eliminates.
//
// The loop order is (ii, jj, kk, i, j, k) with A row-major at baseA,
// B row-major at baseB, C row-major at baseC.
type TiledMatMulStream struct {
	n, tile             int
	baseA, baseB, baseC uint64
	// loop counters
	ii, jj, kk, i, j, k int
	phase               int // 0: load A, 1: load B, 2: load C, 3: store C
	done                bool
	pc                  uint64
}

// NewTiledMatMulStream returns the tiled matmul trace for n×n matrices
// (row-major, 8-byte elements) with the given tile edge.
func NewTiledMatMulStream(n, tile int, baseA, baseB, baseC uint64) *TiledMatMulStream {
	if n <= 0 || tile <= 0 || tile > n || n%tile != 0 {
		panic("workload: bad matmul geometry")
	}
	return &TiledMatMulStream{n: n, tile: tile, baseA: baseA, baseB: baseB, baseC: baseC, pc: 0x2000}
}

// ReadChunk implements trace.Source.  Per innermost (i,j,k) step it
// emits load A[i][k], load B[k][j], then at k==tile-boundary-end the C
// update (load+store C[i][j]) — a simplified but conflict-faithful
// model.
func (t *TiledMatMulStream) ReadChunk(buf []trace.Rec) (int, bool) {
	n := 0
	for ; n < len(buf) && !t.done; n++ {
		buf[n] = t.rec()
		t.advance()
	}
	return n, t.done
}

// rec returns the record of the current phase and loop position.
func (t *TiledMatMulStream) rec() trace.Rec {
	elem := func(base uint64, row, col int) uint64 {
		return base + uint64(row*t.n+col)*8
	}
	switch t.phase {
	case 0:
		return trace.Rec{PC: t.pc, Op: trace.OpLoad, Addr: elem(t.baseA, t.ii+t.i, t.kk+t.k), Dst: 1}
	case 1:
		return trace.Rec{PC: t.pc + 4, Op: trace.OpLoad, Addr: elem(t.baseB, t.kk+t.k, t.jj+t.j), Dst: 2}
	case 2:
		return trace.Rec{PC: t.pc + 8, Op: trace.OpLoad, Addr: elem(t.baseC, t.ii+t.i, t.jj+t.j), Dst: 3}
	default:
		return trace.Rec{PC: t.pc + 12, Op: trace.OpStore, Addr: elem(t.baseC, t.ii+t.i, t.jj+t.j), Src1: 3}
	}
}

// advance steps the phase machine and loop nest.
func (t *TiledMatMulStream) advance() {
	// Phases 2 and 3 (the C update) only run on the last k of a tile.
	lastK := t.k == t.tile-1
	switch {
	case t.phase == 0:
		t.phase = 1
		return
	case t.phase == 1 && lastK:
		t.phase = 2
		return
	case t.phase == 2:
		t.phase = 3
		return
	}
	// Step the innermost loop.
	t.phase = 0
	t.k++
	if t.k < t.tile {
		return
	}
	t.k = 0
	t.j++
	if t.j < t.tile {
		return
	}
	t.j = 0
	t.i++
	if t.i < t.tile {
		return
	}
	t.i = 0
	t.kk += t.tile
	if t.kk < t.n {
		return
	}
	t.kk = 0
	t.jj += t.tile
	if t.jj < t.n {
		return
	}
	t.jj = 0
	t.ii += t.tile
	if t.ii < t.n {
		return
	}
	t.done = true
}
