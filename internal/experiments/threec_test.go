package experiments

import (
	"strings"
	"testing"
)

func TestThreeCMatchesPaperSplit(t *testing.T) {
	cfg := smallBase()
	res := runOK(t, RunThreeCCtx, cfg)
	if len(res.Conventional) != 18 || len(res.IPoly) != 18 {
		t.Fatal("incomplete rows")
	}
	for i, c := range res.Conventional {
		p := res.IPoly[i]
		if c.Name != p.Name {
			t.Fatalf("row order mismatch: %s vs %s", c.Name, p.Name)
		}
		if c.Bad {
			// The bad programs are conflict-dominated conventionally...
			if c.Conflict < 10 {
				t.Errorf("%s: conventional conflict component %.2f%% too low for a bad program",
					c.Name, c.Conflict)
			}
			// ...and I-Poly removes the bulk of it.
			if p.Conflict > c.Conflict/2 {
				t.Errorf("%s: I-Poly conflict %.2f%% not well below conventional %.2f%%",
					c.Name, p.Conflict, c.Conflict)
			}
		} else {
			// Paper: good programs have small conflict components (the
			// paper says < 4%; allow slack for synthetic noise).
			if c.Conflict > 8 {
				t.Errorf("%s: conventional conflict component %.2f%% too high for a good program",
					c.Name, c.Conflict)
			}
		}
		// Compulsory misses are placement-independent.
		diff := c.Compulsory - p.Compulsory
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.5 {
			t.Errorf("%s: compulsory differs across placements: %.2f vs %.2f",
				c.Name, c.Compulsory, p.Compulsory)
		}
	}
	if !strings.Contains(res.report(cfg).RenderString(), "conflict") {
		t.Error("render incomplete")
	}
}
