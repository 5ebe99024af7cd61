package exp

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Experiment is one self-describing entry of the registry: its identity
// and summary (shown by `repro list`), a constructor for its typed
// config pre-filled with defaults (whose flag-tagged fields are the
// parameter spec), and the single Run entrypoint.
type Experiment struct {
	// Name is the registry key and CLI subcommand.
	Name string
	// Summary is the one-line description shown by `repro list`.
	Summary string
	// New returns a fresh config carrying the experiment's defaults.
	New func() Config
	// Run executes the experiment.  The returned report carries tables,
	// series, notes and the normalized base metadata; RunWith stamps
	// identity, schema and wall time.
	Run func(ctx context.Context, cfg Config) (*Report, error)
	// Rev is the experiment's result-schema revision, part of every
	// cached Report's content address: bump it whenever the experiment's
	// semantics or report layout change, so stale cached Reports
	// degrade to a recompute instead of being served.
	Rev int
	// Norm returns a normalized copy of cfg — zero fields filled with
	// the experiment's defaults, cfg itself untouched.  The result
	// cache hashes the normalized config, so a zero field and its
	// explicit default share one cache entry.  nil means cfg is hashed
	// as-is.
	Norm func(cfg Config) Config
}

// Params returns a fresh default config's parameter spec.
func (e Experiment) Params() []*Param { return ParamsOf(e.New()) }

var registry = struct {
	sync.Mutex
	m map[string]Experiment
}{m: make(map[string]Experiment)}

// Register adds an experiment to the process-wide registry.  It panics
// on a duplicate or malformed entry — registration happens from init
// functions, where failing loudly at startup is the correct behaviour.
func Register(e Experiment) {
	if e.Name == "" || e.New == nil || e.Run == nil {
		panic(fmt.Sprintf("exp: incomplete experiment registration %+v", e))
	}
	ParamsOf(e.New()) // validate the parameter spec eagerly
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[e.Name]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment %q", e.Name))
	}
	registry.m[e.Name] = e
}

// Unregister removes an experiment from the registry and reports
// whether it was present.  Production registrations are permanent
// (init-time); this exists so tests injecting synthetic experiments
// can restore the registry and stay order-independent.
func Unregister(name string) bool {
	registry.Lock()
	defer registry.Unlock()
	_, ok := registry.m[name]
	delete(registry.m, name)
	return ok
}

// Get returns the named experiment.
func Get(name string) (Experiment, bool) {
	registry.Lock()
	defer registry.Unlock()
	e, ok := registry.m[name]
	return e, ok
}

// All returns every registered experiment in name order — the iteration
// order of `repro all`, `repro list` and the golden suite.
func All() []Experiment {
	registry.Lock()
	defer registry.Unlock()
	out := make([]Experiment, 0, len(registry.m))
	for _, e := range registry.m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RunWith validates cfg, executes the experiment and stamps the
// report's identity, schema and wall time.  It is the single path every
// consumer (CLI subcommand, `repro all`, golden tests, services) goes
// through.  With a result cache, the report is served from the
// content-addressed store on a key hit and simulated (then persisted)
// otherwise; a nil cache always simulates fresh.  Callers own their
// cache handle, so no run depends on mutable global state.
func RunWith(ctx context.Context, c *ResultCache, e Experiment, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%s: invalid config: %w", e.Name, err)
	}
	if c != nil {
		return c.run(ctx, e, cfg)
	}
	return runFresh(ctx, e, cfg)
}

// runFresh executes the experiment unconditionally and stamps the
// report — the uncached RunWith body, shared by the miss path and the
// integrity resample.
func runFresh(ctx context.Context, e Experiment, cfg Config) (*Report, error) {
	start := time.Now()
	rep, err := e.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	rep.Schema = ReportSchema
	rep.Experiment = e.Name
	if rep.Summary == "" {
		rep.Summary = e.Summary
	}
	rep.Wall = time.Since(start)
	return rep, nil
}

// Spec is the machine-readable registry entry emitted by
// `repro list -json`.
type Spec struct {
	Name    string   `json:"name"`
	Summary string   `json:"summary"`
	Params  []*Param `json:"params"`
}

// Specs returns the full registry spec in name order.
func Specs() []Spec {
	all := All()
	out := make([]Spec, len(all))
	for i, e := range all {
		out[i] = Spec{Name: e.Name, Summary: e.Summary, Params: e.Params()}
	}
	return out
}
