package index

// XORFold implements the skewed-associative cache index functions of
// Seznec [21]: two m-bit fields of the block address are XORed to produce
// the m-bit set index.  Skewing is obtained by rotating the upper field by
// a different amount in each way, so the same pair of blocks that
// conflicts in one way is (usually) spread apart in the others.
//
// With a single way (or rotation disabled) this is the plain "a2-Hx"
// XOR-hash; with per-way rotations it is the "a2-Hx-Sk" scheme of the
// paper's Figure 1.
type XORFold struct {
	bitsN int
	mask  uint64
	skew  bool
}

// NewXORFold returns an XOR-folding placement over 2^bits sets.  If skew
// is true, each way rotates the upper field by its way number before
// folding (the skewed-associative arrangement).
func NewXORFold(bits int, skew bool) *XORFold {
	checkBits(bits)
	return &XORFold{bitsN: bits, mask: 1<<uint(bits) - 1, skew: skew}
}

// SetIndex implements Placement.
func (x *XORFold) SetIndex(block uint64, way int) uint64 {
	lo := block & x.mask
	hi := (block >> uint(x.bitsN)) & x.mask
	if x.skew && way > 0 && x.bitsN > 0 {
		hi = rotl(hi, way%x.bitsN, x.bitsN)
	}
	return lo ^ hi
}

// rotl rotates the low width bits of v left by k positions.
func rotl(v uint64, k, width int) uint64 {
	if k == 0 {
		return v
	}
	mask := uint64(1)<<uint(width) - 1
	v &= mask
	return ((v << uint(k)) | (v >> uint(width-k))) & mask
}

// Sets implements Placement.
func (x *XORFold) Sets() int { return 1 << uint(x.bitsN) }

// Skewed implements Placement.
func (x *XORFold) Skewed() bool { return x.skew }

// Name implements Placement.
func (x *XORFold) Name() string {
	if x.skew {
		return "a2-Hx-Sk"
	}
	return "a2-Hx"
}

// Bits returns the number of index bits.
func (x *XORFold) Bits() int { return x.bitsN }

// XORShuffle is the skewed-associative family closer to Seznec's
// original construction [21][22]: way k's index is σ^k(hi) XOR lo where
// σ is the perfect-shuffle bit permutation of the upper field.  The
// shuffle is a stronger mixing permutation than XORFold's rotation, so
// the two variants bracket the behaviour of published skewed caches.
type XORShuffle struct {
	bitsN int
	mask  uint64
}

// NewXORShuffle returns the shuffle-skewed placement over 2^bits sets.
func NewXORShuffle(bits int) *XORShuffle {
	checkBits(bits)
	return &XORShuffle{bitsN: bits, mask: 1<<uint(bits) - 1}
}

// SetIndex implements Placement.
func (x *XORShuffle) SetIndex(block uint64, way int) uint64 {
	lo := block & x.mask
	hi := (block >> uint(x.bitsN)) & x.mask
	for k := 0; k < way; k++ {
		hi = shuffle(hi, x.bitsN)
	}
	return lo ^ hi
}

// shuffle applies the perfect shuffle to the low width bits of v: the
// lower half and upper half are interleaved (riffle).
func shuffle(v uint64, width int) uint64 {
	half := width / 2
	var out uint64
	for i := 0; i < half; i++ {
		out |= (v >> uint(i) & 1) << uint(2*i)        // low half -> even
		out |= (v >> uint(half+i) & 1) << uint(2*i+1) // high half -> odd
	}
	if width%2 == 1 {
		out |= (v >> uint(width-1) & 1) << uint(width-1) // odd top bit fixed
	}
	return out
}

// Sets implements Placement.
func (x *XORShuffle) Sets() int { return 1 << uint(x.bitsN) }

// Skewed implements Placement.
func (x *XORShuffle) Skewed() bool { return true }

// Name implements Placement.
func (x *XORShuffle) Name() string { return "a2-Hx2-Sk" }

// Bits returns the number of index bits.
func (x *XORShuffle) Bits() int { return x.bitsN }
