package index

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gf2"
)

func TestModuloBasics(t *testing.T) {
	m := NewModulo(7)
	if m.Sets() != 128 || m.Skewed() || m.Name() != "a2" {
		t.Fatalf("Modulo metadata wrong: %+v", m)
	}
	if got := m.SetIndex(0x12345, 0); got != 0x12345&127 {
		t.Errorf("SetIndex = %d", got)
	}
	// Way must be ignored.
	if m.SetIndex(999, 0) != m.SetIndex(999, 1) {
		t.Error("Modulo must not skew")
	}
}

func TestModuloStrideMCollides(t *testing.T) {
	// The motivating pathology (§2): blocks separated by a multiple of the
	// set count always collide under modulo placement.
	m := NewModulo(7)
	base := uint64(0x4000)
	for k := uint64(1); k < 16; k++ {
		if m.SetIndex(base, 0) != m.SetIndex(base+k*128, 0) {
			t.Fatalf("stride-128 blocks did not collide at k=%d", k)
		}
	}
}

func TestXORFoldRange(t *testing.T) {
	x := NewXORFold(7, true)
	f := func(b uint64, way uint8) bool {
		return x.SetIndex(b, int(way%2)) < uint64(x.Sets())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXORFoldNames(t *testing.T) {
	if NewXORFold(7, true).Name() != "a2-Hx-Sk" || NewXORFold(7, false).Name() != "a2-Hx" {
		t.Error("XORFold names wrong")
	}
}

func TestXORFoldSkewDiffersBetweenWays(t *testing.T) {
	x := NewXORFold(7, true)
	diff := 0
	for b := uint64(0); b < 4096; b++ {
		if x.SetIndex(b, 0) != x.SetIndex(b, 1) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("skewed XORFold never separated ways")
	}
	u := NewXORFold(7, false)
	for b := uint64(0); b < 4096; b++ {
		if u.SetIndex(b, 0) != u.SetIndex(b, 1) {
			t.Fatal("unskewed XORFold differed between ways")
		}
	}
}

func TestXORFoldKnown(t *testing.T) {
	x := NewXORFold(4, false)
	// block = hi:0b1010, lo:0b0101 -> index 0b1111
	if got := x.SetIndex(0b1010_0101, 0); got != 0b1111 {
		t.Errorf("SetIndex = %#b", got)
	}
}

func TestRotl(t *testing.T) {
	if got := rotl(0b0001, 1, 4); got != 0b0010 {
		t.Errorf("rotl = %#b", got)
	}
	if got := rotl(0b1000, 1, 4); got != 0b0001 {
		t.Errorf("rotl wrap = %#b", got)
	}
	if got := rotl(0b1010, 0, 4); got != 0b1010 {
		t.Errorf("rotl 0 = %#b", got)
	}
}

func TestIPolyMatchesDirectMod(t *testing.T) {
	p := gf2.Irreducibles(7, 1)[0]
	ip := NewIPoly([]gf2.Poly{p}, 7, 14)
	f := func(b uint64) bool {
		masked := b & (1<<14 - 1)
		want := uint64(gf2.Poly(masked).Mod(p))
		return ip.SetIndex(b, 0) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPolyRange(t *testing.T) {
	ip := NewIPolyDefault(2, 7, 14)
	f := func(b uint64, way uint8) bool {
		return ip.SetIndex(b, int(way%2)) < uint64(ip.Sets())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPolySkewNames(t *testing.T) {
	if NewIPolyDefault(2, 7, 14).Name() != "a2-Hp-Sk" {
		t.Error("skewed name wrong")
	}
	if NewIPolyDefault(1, 7, 14).Name() != "a2-Hp" {
		t.Error("unskewed name wrong")
	}
}

func TestIPolyStride2kConflictFree(t *testing.T) {
	// §2.1.2: strides of the form 2^k produce conflict-free M-long
	// subsequences.  For each 2^k stride, walking M consecutive strided
	// blocks must touch M distinct indices (direct-mapped view, way 0).
	ip := NewIPolyDefault(1, 7, 19)
	M := uint64(128)
	for k := uint(0); k <= 10; k++ {
		stride := uint64(1) << k
		seen := make(map[uint64]bool, M)
		for i := uint64(0); i < M; i++ {
			idx := ip.SetIndex(i*stride, 0)
			if seen[idx] {
				t.Fatalf("stride 2^%d: index %d repeated within %d-long subsequence", k, idx, M)
			}
			seen[idx] = true
		}
	}
}

func TestModuloLargePow2StrideDegenerates(t *testing.T) {
	// Contrast with the above: under modulo placement a 2^k stride with
	// k >= index bits maps everything to one set.
	m := NewModulo(7)
	stride := uint64(1) << 9
	first := m.SetIndex(0, 0)
	for i := uint64(1); i < 64; i++ {
		if m.SetIndex(i*stride, 0) != first {
			t.Fatal("expected total degeneration under modulo for 2^9 stride")
		}
	}
}

func TestIPolyInputBitsAndPolys(t *testing.T) {
	ip := NewIPolyDefault(2, 7, 14)
	for w := 0; w < 2; w++ {
		if got := ip.Matrix(w).InputBits(); got != 14 {
			t.Errorf("way %d hashes %d input bits, want 14", w, got)
		}
	}
	ps := ip.Polys()
	if len(ps) != 2 || ps[0] == ps[1] {
		t.Errorf("Polys = %v", ps)
	}
	// Mutating the returned slice must not affect the placement.
	ps[0] = 0
	if ip.Polys()[0] == 0 {
		t.Error("Polys returned internal slice")
	}
}

func TestIPolyMaxFanInBounded(t *testing.T) {
	ip := NewIPolyDefault(2, 7, 14)
	if f := ip.MaxFanIn(); f < 1 || f > 14 {
		t.Errorf("MaxFanIn = %d out of sane range", f)
	}
}

func TestIPolyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no polys":    func() { NewIPoly(nil, 7, 14) },
		"vbits <= m":  func() { NewIPolyDefault(1, 7, 7) },
		"vbits > 64":  func() { NewIPolyDefault(1, 7, 65) },
		"wrong deg":   func() { NewIPoly([]gf2.Poly{gf2.Irreducibles(6, 1)[0]}, 7, 14) },
		"bad bits":    func() { NewModulo(-1) },
		"bits too hi": func() { NewModulo(31) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSchemeFactory(t *testing.T) {
	for _, s := range []Scheme{SchemeModulo, SchemeXOR, SchemeXORSk, SchemeIPoly, SchemeIPolySk, SchemeSingle} {
		p, err := New(s, 7, 2, 14)
		if err != nil {
			t.Fatalf("New(%s): %v", s, err)
		}
		if s == SchemeSingle {
			if p.Sets() != 1 {
				t.Errorf("single placement has %d sets", p.Sets())
			}
			continue
		}
		if p.Sets() != 128 {
			t.Errorf("New(%s).Sets() = %d", s, p.Sets())
		}
		if string(s) != p.Name() && s != SchemeIPoly && s != SchemeIPolySk && s != SchemeXOR && s != SchemeXORSk {
			t.Errorf("scheme %s produced placement named %s", s, p.Name())
		}
	}
	if _, err := New("bogus", 7, 2, 14); err == nil {
		t.Error("unknown scheme must error")
	}
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on unknown scheme")
		}
	}()
	MustNew("nope", 7, 2, 14)
}

func TestAllSchemes(t *testing.T) {
	all := AllSchemes()
	if len(all) != 4 || all[0] != SchemeModulo || all[3] != SchemeIPolySk {
		t.Errorf("AllSchemes = %v", all)
	}
}

func TestSingle(t *testing.T) {
	var s Single
	if s.SetIndex(123456, 3) != 0 || s.Sets() != 1 || s.Skewed() || s.Name() != "fa" {
		t.Error("Single placement wrong")
	}
}

func TestXORShuffleRangeAndSkew(t *testing.T) {
	x := NewXORShuffle(7)
	if x.Sets() != 128 || !x.Skewed() || x.Name() != "a2-Hx2-Sk" {
		t.Fatal("metadata wrong")
	}
	f := func(b uint64, way uint8) bool {
		return x.SetIndex(b, int(way%2)) < uint64(x.Sets())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Skewing must separate ways for a good fraction of blocks.
	diff := 0
	for b := uint64(0); b < 4096; b++ {
		if x.SetIndex(b, 0) != x.SetIndex(b, 1) {
			diff++
		}
	}
	if diff < 1000 {
		t.Errorf("shuffle skew separated only %d/4096 blocks", diff)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	for _, width := range []int{4, 6, 7, 8} {
		seen := make(map[uint64]bool)
		for v := uint64(0); v < 1<<uint(width); v++ {
			s := shuffle(v, width)
			if s >= 1<<uint(width) {
				t.Fatalf("width %d: shuffle(%d) = %d out of range", width, v, s)
			}
			if seen[s] {
				t.Fatalf("width %d: shuffle not injective at %d", width, v)
			}
			seen[s] = true
		}
	}
}

func TestShuffleKnown(t *testing.T) {
	// width 4: bits (b3 b2 b1 b0) -> (b3 b1 b2 b0): low half {b0,b1} to
	// even positions, high half {b2,b3} to odd positions.
	if got := shuffle(0b0011, 4); got != 0b0101 {
		t.Errorf("shuffle(0011) = %04b, want 0101", got)
	}
	if got := shuffle(0b1100, 4); got != 0b1010 {
		t.Errorf("shuffle(1100) = %04b, want 1010", got)
	}
}

// TestNewRejectsImpossibleGeometry pins New's contract for geometries a
// user can type: each is an error naming the reason, not a panic.
func TestNewRejectsImpossibleGeometry(t *testing.T) {
	cases := []struct {
		name              string
		s                 Scheme
		bits, ways, vbits int
		wantErr           string
	}{
		// repro replay -addrbits 100, 6 and -5 at 32-byte blocks.
		{"addrbits 100", SchemeIPolySk, 7, 2, 95, "hashes 95 block-address bits"},
		{"addrbits 6", SchemeIPolySk, 7, 2, 1, "want (7, 64]"},
		{"addrbits -5", SchemeIPolySk, 7, 2, -10, "hashes -10 block-address bits"},
		{"vbits equal to bits", SchemeIPoly, 7, 1, 7, "want (7, 64]"},
		// tracesim -scheme a2-Hp -size 64 -block 32 -ways 2: one set.
		{"one-set a2-Hp", SchemeIPoly, 0, 2, 14, "needs at least 2 sets"},
		{"one-set a2-Hp-Sk", SchemeIPolySk, 0, 2, 14, "needs at least 2 sets"},
		// tracesim -scheme a2-Hp-Sk -size 256 -block 32 -ways 4: two
		// sets, and degree 1 has only two irreducible polynomials.
		{"4-way two-set a2-Hp-Sk", SchemeIPolySk, 1, 4, 14, "needs 4 distinct irreducible polynomials of degree 1, and only 2 exist"},
		{"2-way four-set a2-Hp-Sk", SchemeIPolySk, 2, 2, 14, "only 1 exist"},
		{"zero-way a2-Hp-Sk", SchemeIPolySk, 7, 0, 14, "needs at least 1 way"},
		// tracesim -scheme a2 -size 68719476736 -block 32 -ways 1.
		{"31 index bits", SchemeModulo, 31, 1, 14, "31 index bits out of range"},
		{"negative index bits", SchemeXORSk, -1, 2, 14, "-1 index bits out of range"},
		{"unknown scheme", "a3", 7, 2, 14, "unknown scheme"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.s, tc.bits, tc.ways, tc.vbits)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("New(%s, %d, %d, %d) = %v, %v; want error containing %q", tc.s, tc.bits, tc.ways, tc.vbits, p, err, tc.wantErr)
			}
		})
	}
}

// TestNewNeverPanics sweeps New over every scheme and a grid of index
// widths, way counts and hash widths around each limit: it either
// errors or returns a placement over 2^bits sets.
func TestNewNeverPanics(t *testing.T) {
	for _, s := range []Scheme{SchemeModulo, SchemeXOR, SchemeXORSk, SchemeIPoly, SchemeIPolySk, SchemeSingle} {
		for bits := -1; bits <= maxBits+1; bits++ {
			for ways := -1; ways <= 5; ways++ {
				for _, vbits := range []int{-1, 0, bits, bits + 1, 64, 65} {
					p, err := New(s, bits, ways, vbits)
					switch {
					case err != nil:
					case s == SchemeSingle:
						if p.Sets() != 1 {
							t.Fatalf("New(%s) has %d sets", s, p.Sets())
						}
					case p.Sets() != 1<<bits:
						t.Fatalf("New(%s, %d, %d, %d) has %d sets", s, bits, ways, vbits, p.Sets())
					}
				}
			}
		}
	}
}
