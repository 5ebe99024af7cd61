package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/exp"
)

// roundTripParams shrinks every experiment to test scale through its
// public parameter spec — the same surface the CLI binds flags to.
var roundTripParams = map[string]string{
	"instructions": "4000",
	"seed":         "7",
	"maxstride":    "160",
	"rounds":       "5",
}

// TestReportRoundTripPin runs every registered experiment once and pins
// the full Report wire contract the result cache depends on: the JSON
// encoding decodes back and re-encodes byte-identically, and the decoded
// report renders the same text as the fresh one.  If any experiment
// grows a field that does not survive the round trip, a cached warm run
// would silently diverge from a cold one — this test makes that a loud
// local failure instead.
func TestReportRoundTripPin(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment")
	}
	for _, e := range exp.All() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			cfg := e.New()
			for _, p := range exp.ParamsOf(cfg) {
				if v, ok := roundTripParams[p.Name]; ok {
					if err := p.Set(v); err != nil {
						t.Fatalf("set %s=%s: %v", p.Name, v, err)
					}
				}
			}
			rep, err := exp.RunWith(context.Background(), nil, e, cfg)
			if err != nil {
				t.Fatal(err)
			}

			b1, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var back exp.Report
			if err := json.Unmarshal(b1, &back); err != nil {
				t.Fatal(err)
			}
			b2, err := json.Marshal(&back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("re-encoded report differs byte-wise:\n  b1 %s\n  b2 %s", b1, b2)
			}

			if got, want := back.RenderString(), rep.RenderString(); got != want {
				t.Errorf("decoded report renders differently:\n--- fresh\n%s\n--- decoded\n%s", want, got)
			}
		})
	}
}
