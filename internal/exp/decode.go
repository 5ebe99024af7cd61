package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// DecodeConfig constructs e's typed config from a raw JSON object: the
// experiment's defaults (e.New) overlaid with the fields raw supplies.
// Decoding is strict — unknown fields, wrong-typed values and trailing
// data are errors, so a service can reject a malformed submission
// instead of silently simulating something other than what the client
// asked for.  An empty or null raw yields the plain defaults.  The
// returned config is not validated; callers run Config.Validate (or
// RunWith, which does) next.
func DecodeConfig(e Experiment, raw []byte) (Config, error) {
	cfg := e.New()
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 || bytes.Equal(trimmed, []byte("null")) {
		return cfg, nil
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("%s: config: %w", e.Name, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%s: config: trailing data after the JSON object", e.Name)
	}
	return cfg, nil
}
