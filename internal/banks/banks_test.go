package banks

import (
	"testing"

	"repro/internal/gf2"
	"repro/internal/index"
)

// The conventional, XOR and polynomial interleaves over 16 banks: the
// cache's own index functions, adapted by Indexed.
func modulo4() Selector { return Indexed(index.NewModulo(4)) }
func xor4() Selector    { return Indexed(index.NewXORFold(4, false)) }
func ipoly4() Selector  { return Indexed(index.NewIPoly(gf2.Irreducibles(4, 1), 4, 16)) }

func TestSelectorsInRange(t *testing.T) {
	sels := map[string]Selector{
		"modulo": modulo4(),
		"prime":  NewPrime(17),
		"ipoly":  ipoly4(),
		"xor":    xor4(),
	}
	for name, s := range sels {
		for a := uint64(0); a < 10000; a++ {
			if b := s.Bank(a); b < 0 || b >= s.Banks() {
				t.Fatalf("%s: bank %d out of range", name, b)
			}
		}
	}
}

func TestModuloStrideDegeneration(t *testing.T) {
	// Conventional interleave: stride = banks hits one bank forever.
	m := NewMemory(modulo4(), 4)
	for i := uint64(0); i < 1024; i++ {
		m.Access(i * 16)
	}
	if m.ConflictRatio() < 0.9 {
		t.Errorf("modulo should conflict on stride=banks: %.2f", m.ConflictRatio())
	}
	// Bandwidth collapses to ~1/busyTime.
	if bw := m.Bandwidth(); bw > 0.3 {
		t.Errorf("bandwidth %.2f too high for a fully serialised stream", bw)
	}
}

func TestIPolyStride2kConflictFree(t *testing.T) {
	// Rau's result, inherited by the cache index functions (§2.1.2):
	// power-of-two strides distribute perfectly.
	for k := uint(0); k <= 6; k++ {
		m := NewMemory(ipoly4(), 4)
		for i := uint64(0); i < 1024; i++ {
			m.Access(i << k)
		}
		// The theorem guarantees no conflicts WITHIN each 16-long
		// subsequence; across subsequence boundaries a handful of waits
		// can occur, so allow a tiny residue (<= 1% of requests).
		if m.ConflictRatio() > 0.01 {
			t.Errorf("stride 2^%d: conflict ratio %.4f under polynomial interleaving",
				k, m.ConflictRatio())
		}
		if bw := m.Bandwidth(); bw < 0.9 {
			t.Errorf("stride 2^%d: bandwidth %.2f < full rate", k, bw)
		}
	}
}

func TestPrimeAvoidsPow2Strides(t *testing.T) {
	// 17 banks, stride 16: cycles through all banks (16 coprime to 17).
	m := NewMemory(NewPrime(17), 4)
	for i := uint64(0); i < 1024; i++ {
		m.Access(i * 16)
	}
	if m.ConflictRatio() > 0.05 {
		t.Errorf("prime interleave should spread stride 16: %.2f", m.ConflictRatio())
	}
	// But stride 17 is its pathology.
	m2 := NewMemory(NewPrime(17), 4)
	for i := uint64(0); i < 1024; i++ {
		m2.Access(i * 17)
	}
	if m2.ConflictRatio() < 0.9 {
		t.Errorf("stride = prime should serialise: %.2f", m2.ConflictRatio())
	}
}

func TestXORSpreadsSomePow2(t *testing.T) {
	// XOR folding spreads stride = banks (bits move into the folded
	// field) but degenerates at stride = banks^2.
	m := NewMemory(xor4(), 4)
	for i := uint64(0); i < 1024; i++ {
		m.Access(i * 16)
	}
	if m.Conflicts != 0 {
		t.Errorf("xor should spread stride 16: %d conflicts", m.Conflicts)
	}
	m2 := NewMemory(xor4(), 4)
	for i := uint64(0); i < 1024; i++ {
		m2.Access(i * 256)
	}
	if m2.ConflictRatio() < 0.9 {
		t.Errorf("xor stride 256 should serialise: %.2f", m2.ConflictRatio())
	}
}

func TestIPolyRobustAcrossOddStrides(t *testing.T) {
	// Sweep many strides; polynomial interleaving should keep bandwidth
	// high for the vast majority.
	bad := 0
	for s := uint64(1); s <= 512; s++ {
		m := NewMemory(ipoly4(), 4)
		for i := uint64(0); i < 256; i++ {
			m.Access(i * s)
		}
		if m.Bandwidth() < 0.5 {
			bad++
		}
	}
	if bad > 26 { // > ~5% of strides
		t.Errorf("%d/512 strides degraded under polynomial interleaving", bad)
	}
}

func TestBandwidthIdealBound(t *testing.T) {
	// Sequential stride-1 through any selector achieves full bandwidth
	// when banks >= busy time.
	for name, s := range map[string]Selector{"modulo": modulo4(), "ipoly": ipoly4()} {
		m := NewMemory(s, 4)
		for i := uint64(0); i < 4096; i++ {
			m.Access(i)
		}
		if bw := m.Bandwidth(); bw < 0.99 {
			t.Errorf("%s: sequential bandwidth %.3f", name, bw)
		}
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"prime not prime": func() { NewPrime(15) },
		"prime tiny":      func() { NewPrime(1) },
		"modulo range":    func() { Indexed(index.NewModulo(-1)) },
		"busy zero":       func() { NewMemory(Indexed(index.NewModulo(2)), 0) },
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

func TestZeroStats(t *testing.T) {
	m := NewMemory(Indexed(index.NewModulo(2)), 4)
	if m.Bandwidth() != 0 || m.ConflictRatio() != 0 {
		t.Error("fresh memory stats should be zero")
	}
}
