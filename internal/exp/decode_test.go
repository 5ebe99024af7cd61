package exp

import (
	"context"
	"strings"
	"testing"

	"repro/internal/store"
)

// decodeConfig mirrors a real experiment config: json-tagged fields over
// the shared Base.
type decodeConfig struct {
	Base
	Rounds int    `json:"rounds" flag:"rounds" help:"walk rounds"`
	Label  string `json:"label" flag:"label" help:"free-form label"`
}

func (c *decodeConfig) Validate() error { return nil }

func decodeExp() Experiment {
	return Experiment{
		Name:    "decode-demo",
		Summary: "decode test experiment",
		Rev:     1,
		New: func() Config {
			return &decodeConfig{Base: DefaultBase(), Rounds: 17, Label: "x"}
		},
		Run: func(ctx context.Context, cfg Config) (*Report, error) {
			c := cfg.(*decodeConfig)
			rep := &Report{}
			rep.Notef("rounds=%d label=%s", c.Rounds, c.Label)
			return rep, nil
		},
	}
}

func TestDecodeConfig(t *testing.T) {
	e := decodeExp()
	cases := []struct {
		name    string
		raw     string
		wantErr string // "" means success
		check   func(t *testing.T, c *decodeConfig)
	}{
		{name: "empty keeps defaults", raw: "", check: func(t *testing.T, c *decodeConfig) {
			if c.Rounds != 17 || c.Seed != DefaultSeed || c.Instructions != DefaultInstructions {
				t.Errorf("defaults not preserved: %+v", c)
			}
		}},
		{name: "null keeps defaults", raw: "null", check: func(t *testing.T, c *decodeConfig) {
			if c.Rounds != 17 {
				t.Errorf("defaults not preserved: %+v", c)
			}
		}},
		{name: "partial override", raw: `{"instructions": 4000, "rounds": 5}`, check: func(t *testing.T, c *decodeConfig) {
			if c.Instructions != 4000 || c.Rounds != 5 || c.Seed != DefaultSeed || c.Label != "x" {
				t.Errorf("override wrong: %+v", c)
			}
		}},
		{name: "unknown field", raw: `{"bogus": 1}`, wantErr: "unknown field"},
		{name: "wrong type", raw: `{"instructions": "lots"}`, wantErr: "cannot unmarshal"},
		{name: "not an object", raw: `5`, wantErr: "cannot unmarshal"},
		{name: "trailing data", raw: `{} {}`, wantErr: "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := DecodeConfig(e, []byte(tc.raw))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, cfg.(*decodeConfig))
		})
	}
}

// TestRunWithAndCached pins the service-facing cache hooks: RunWith(nil)
// always simulates, RunWith(cache) persists, and Cached serves the
// stored report without simulating — with the probe visible in Stats.
func TestRunWithAndCached(t *testing.T) {
	e := decodeExp()
	d, err := store.Open(t.TempDir(), store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	rc := NewResultCache(d)
	cfg, err := DecodeConfig(e, []byte(`{"instructions": 4000, "seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := rc.Cached(e, cfg); ok {
		t.Fatal("Cached hit on an empty store")
	}
	fresh, err := RunWith(context.Background(), nil, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rc.Cached(e, cfg); ok {
		t.Fatal("RunWith(nil) must not populate the cache")
	}
	if _, err := RunWith(context.Background(), rc, e, cfg); err != nil {
		t.Fatal(err)
	}
	got, ok := rc.Cached(e, cfg)
	if !ok {
		t.Fatal("Cached miss after a cached run")
	}
	var cachedJSON, freshJSON strings.Builder
	if err := WriteJSON(&cachedJSON, got); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&freshJSON, fresh); err != nil {
		t.Fatal(err)
	}
	if cachedJSON.String() != freshJSON.String() {
		t.Errorf("cached report differs from fresh:\n%s\nvs\n%s", cachedJSON.String(), freshJSON.String())
	}
	st := rc.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v, want 1 hit (the probe), 1 miss, 1 write", st)
	}
	if ds := rc.StoreStats(); ds.Writes == 0 {
		t.Errorf("store stats show no writes: %+v", ds)
	}
}
