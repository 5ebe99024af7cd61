package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/exp"
)

// FuzzDecodeConfig feeds arbitrary bytes to every registered
// experiment's strict config decoder, the input boundary of `repro
// serve`.  Decoding must never panic, and a config it accepts must
// survive a marshal and decode round trip with its result-cache key
// unchanged.  Configs naming a trace file are skipped: their key hashes
// the file's bytes.
func FuzzDecodeConfig(f *testing.F) {
	for _, seed := range []string{
		``, `null`, `{}`, `{} {}`, `[]`,
		`{"instructions":5000,"seed":7,"workers":2}`,
		`{"instructions":0,"seed":0}`,
		`{"seed":18446744073709551615}`,
		`{"instructions":1e3}`,
		`{"MaxStride":64,"Rounds":3}`,
		`{"max_ways":4}`,
		`{"bench":"gcc","scheme":"a2-Hx-Sk","size":4096,"ways":4,"timeshards":4,"warmup":0}`,
		`{"tracefile":"t.din"}`,
		`{"nosuchfield":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, e := range exp.All() {
			cfg, err := exp.DecodeConfig(e, raw)
			if err != nil || cfg.BaseConfig().TraceFile != "" {
				continue
			}
			key, err := exp.ReportKey(e, cfg)
			if err != nil {
				t.Fatalf("%s: accepted %q but cannot key it: %v", e.Name, raw, err)
			}
			again, err := json.Marshal(cfg)
			if err != nil {
				t.Fatalf("%s: accepted %q but cannot marshal it: %v", e.Name, raw, err)
			}
			cfg2, err := exp.DecodeConfig(e, again)
			if err != nil {
				t.Fatalf("%s: %q re-marshalled as %s no longer decodes: %v", e.Name, raw, again, err)
			}
			key2, err := exp.ReportKey(e, cfg2)
			if err != nil || key2 != key {
				t.Fatalf("%s: %q re-marshalled as %s keys as %s (%v), want %s", e.Name, raw, again, key2, err, key)
			}
		}
	})
}
