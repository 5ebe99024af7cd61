package hierarchy

import (
	"testing"

	"repro/internal/index"
)

func newAdaptive() *AdaptiveCache {
	return NewAdaptiveCache(8<<10, 32, 2, index.NewIPolyDefault(2, 7, 14), 256<<10)
}

func TestAdaptiveStartsConventional(t *testing.T) {
	a := newAdaptive()
	if a.UsingPolynomial() {
		t.Error("no segments tracked: must start conventional")
	}
}

func TestAdaptiveSwitchesWhenAllLarge(t *testing.T) {
	a := newAdaptive()
	a.SetSegment("heap", 256<<10)
	if !a.UsingPolynomial() {
		t.Error("single large segment should enable polynomial indexing")
	}
	a.SetSegment("stack", 4<<10) // small page appears
	if a.UsingPolynomial() {
		t.Error("small segment must force conventional indexing")
	}
	a.SetSegment("stack", 512<<10)
	if !a.UsingPolynomial() {
		t.Error("all-large again should re-enable")
	}
	if a.Flushes != 3 {
		t.Errorf("Flushes = %d, want 3 (one per mode switch)", a.Flushes)
	}
}

func TestAdaptiveFlushOnSwitch(t *testing.T) {
	a := newAdaptive()
	a.Access(0x1000, false)
	if !a.Access(0x1000, false) {
		t.Fatal("warm access missed")
	}
	a.SetSegment("heap", 1<<20) // switch: flush
	if a.Access(0x1000, false) {
		t.Error("line survived an indexing-function switch")
	}
}

func TestAdaptiveNoSpuriousFlush(t *testing.T) {
	a := newAdaptive()
	a.SetSegment("heap", 1<<20)
	f := a.Flushes
	a.SetSegment("heap2", 2<<20) // still all-large: no switch
	if a.Flushes != f {
		t.Error("flushed without a mode change")
	}
	a.DropSegment("heap2")
	if a.Flushes != f {
		t.Error("dropping a compliant segment must not flush")
	}
}

func TestAdaptiveConflictBehaviourPerMode(t *testing.T) {
	thrash := func(a *AdaptiveCache) float64 {
		for r := 0; r < 20; r++ {
			for i := uint64(0); i < 4; i++ {
				a.Access(i*8192, false)
			}
		}
		return float64(a.Stats().Misses) / float64(a.Stats().Accesses)
	}
	conv := newAdaptive() // conventional mode
	if mr := thrash(conv); mr < 0.9 {
		t.Errorf("conventional mode should thrash: %.2f", mr)
	}
	poly := newAdaptive()
	poly.SetSegment("heap", 1<<20)
	if mr := thrash(poly); mr > 0.3 {
		t.Errorf("polynomial mode should not thrash: %.2f", mr)
	}
}

func TestAdaptivePanicsOnBadPageSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	newAdaptive().SetSegment("x", 0)
}
