package hierarchy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/rng"
)

// TestPageTableScrambledSequencePinned pins the exact physical pages a
// scrambled table hands out, not just their uniqueness: a fixed
// sequence of 20,000 translations over 4,096 virtual pages (so most
// are repeats), every 97th step translating its page twice, must hash
// to the digest recorded when the allocator rebuilt its used set on
// every first touch.
func TestPageTableScrambledSequencePinned(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{77, "ccc0c01914ab1a1b9b01da523d0fde1475bb940d75583efcb9a142de45458d3e"},
		{1997, "c1cbe0e3e5e47b3cdbcf4a128873e27b79f6050e2abfe4b1080ef0b4ad1aa3d3"},
	} {
		pt := NewPageTable(12, tc.seed)
		r := rng.New(5)
		h := sha256.New()
		var buf [8]byte
		put := func(ppage uint64) {
			binary.LittleEndian.PutUint64(buf[:], ppage)
			h.Write(buf[:])
		}
		for i := 0; i < 20000; i++ {
			v := uint64(r.Intn(4096))
			if i%97 == 0 {
				// Early on v is often unmapped, so this allocates.
				put(pt.Translate(v<<12) >> 12)
			}
			put(pt.Translate(v<<12|uint64(i)&0xfff) >> 12)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("seed %d: page sequence digest %s, want %s", tc.seed, got, tc.want)
		}
	}
}
