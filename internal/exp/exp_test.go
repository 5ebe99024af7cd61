package exp

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"
)

type demoConfig struct {
	Base
	Rounds int     `flag:"rounds" help:"walk rounds"`
	Label  string  `flag:"label" help:"free-form label"`
	Frac   float64 `flag:"frac" help:"a fraction"`
	Fast   bool    `flag:"fast" help:"skip slow parts"`
	hidden int     // no tag: not a parameter
}

func (c *demoConfig) Validate() error {
	if c.Rounds < 0 {
		return errors.New("rounds must be >= 0")
	}
	return nil
}

func newDemo() Config {
	return &demoConfig{Base: DefaultBase(), Rounds: 17, Label: "x", Frac: 0.5}
}

func TestParamsOfSpec(t *testing.T) {
	cfg := newDemo()
	params := ParamsOf(cfg)
	var names, kinds, defaults []string
	for _, p := range params {
		names = append(names, p.Name)
		kinds = append(kinds, p.Kind)
		defaults = append(defaults, p.Default)
	}
	wantNames := []string{"instructions", "seed", "tracefile", "rounds", "label", "frac", "fast"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("param names = %v, want %v (base first, declaration order)", names, wantNames)
	}
	wantKinds := []string{"uint", "uint", "string", "int", "string", "float", "bool"}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Errorf("param kinds = %v, want %v", kinds, wantKinds)
	}
	wantDefaults := []string{"200000", "1997", "", "17", "x", "0.5", "false"}
	if !reflect.DeepEqual(defaults, wantDefaults) {
		t.Errorf("param defaults = %v, want %v", defaults, wantDefaults)
	}
}

func TestParamSetWritesThrough(t *testing.T) {
	cfg := newDemo().(*demoConfig)
	params := ParamsOf(cfg)
	byName := map[string]*Param{}
	for _, p := range params {
		byName[p.Name] = p
	}
	for name, val := range map[string]string{
		"instructions": "4000", "seed": "7",
		"rounds": "5", "label": "hello", "frac": "0.25", "fast": "true",
	} {
		if err := byName[name].Set(val); err != nil {
			t.Fatalf("set %s=%s: %v", name, val, err)
		}
	}
	want := demoConfig{
		Base:   Base{Instructions: 4000, Seed: 7},
		Rounds: 5, Label: "hello", Frac: 0.25, Fast: true,
	}
	if *cfg != want {
		t.Errorf("config after Set = %+v, want %+v", *cfg, want)
	}
	if got := byName["rounds"].String(); got != "5" {
		t.Errorf("String() after Set = %q, want 5", got)
	}
}

func TestParamSetRejectsBadValues(t *testing.T) {
	cfg := newDemo()
	for _, p := range ParamsOf(cfg) {
		if p.Kind == "string" {
			continue
		}
		if err := p.Set("not-a-number"); err == nil {
			t.Errorf("param %s accepted garbage", p.Name)
		}
	}
	// Negative values must not sneak into unsigned fields.
	for _, p := range ParamsOf(cfg) {
		if p.Name == "seed" {
			if err := p.Set("-1"); err == nil {
				t.Error("seed accepted -1")
			}
		}
	}
}

func TestBoolParamsSupportBareFlagSyntax(t *testing.T) {
	cfg := newDemo().(*demoConfig)
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	for _, p := range ParamsOf(cfg) {
		if (p.Kind == "bool") != p.IsBoolFlag() {
			t.Errorf("param %s (kind %s): IsBoolFlag = %v", p.Name, p.Kind, p.IsBoolFlag())
		}
		fs.Var(p, p.Name, p.Help)
	}
	// Bare -fast (no =true) is the standard boolean flag syntax.
	if err := fs.Parse([]string{"-fast", "-rounds", "3"}); err != nil {
		t.Fatal(err)
	}
	if !cfg.Fast || cfg.Rounds != 3 {
		t.Errorf("config after parse: %+v", *cfg)
	}
}

func TestNormalizeFillsZeroFields(t *testing.T) {
	zero := &demoConfig{Base: Base{TraceFile: "t.din"}, hidden: 3}
	n := Normalize(zero, newDemo()).(*demoConfig)
	want := demoConfig{
		Base:   Base{Instructions: DefaultInstructions, Seed: DefaultSeed, TraceFile: "t.din"},
		Rounds: 17, Label: "x", Frac: 0.5, hidden: 3,
	}
	if *n != want {
		t.Errorf("normalize: %+v, want %+v", *n, want)
	}
	if *zero != (demoConfig{Base: Base{TraceFile: "t.din"}, hidden: 3}) {
		t.Errorf("normalize mutated its argument: %+v", *zero)
	}
	explicit := &demoConfig{Base: Base{Instructions: 5, Seed: 9}, Rounds: 2, Label: "y", Frac: 0.25, Fast: true}
	if n := Normalize(explicit, newDemo()).(*demoConfig); *n != *explicit {
		t.Errorf("normalize clobbered explicit values: %+v", *n)
	}
	defer func() {
		if recover() == nil {
			t.Error("normalizing against another config type did not panic")
		}
	}()
	Normalize(&Base{}, newDemo())
}

func TestRegistryRunStampsMetadata(t *testing.T) {
	e := Experiment{
		Name:    "demo-run",
		Summary: "a demo",
		New:     newDemo,
		Run: func(ctx context.Context, cfg Config) (*Report, error) {
			rep := &Report{}
			rep.AddTable(NewTable("t", "", StrCol("k"), FloatCol("v", "")).AddRow("a", 1.5))
			return rep, nil
		},
	}
	Register(e)
	got, ok := Get("demo-run")
	if !ok || got.Summary != "a demo" {
		t.Fatal("registered experiment not retrievable")
	}
	rep, err := RunWith(context.Background(), nil, e, newDemo())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema || rep.Experiment != "demo-run" || rep.Summary != "a demo" {
		t.Errorf("metadata not stamped: %+v", rep)
	}
	if rep.Instructions != DefaultInstructions || rep.Seed != DefaultSeed {
		t.Errorf("base metadata missing: %+v", rep)
	}
	// The metadata comes from the normalized config: zero fields stamp
	// their defaults, explicit ones stamp as given.
	for _, b := range []Base{{}, {Instructions: 4000, Seed: 7}} {
		cfg := newDemo().(*demoConfig)
		cfg.Base = b
		rep, err := RunWith(context.Background(), nil, e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := Normalize(cfg, newDemo()).BaseConfig()
		if rep.Instructions != want.Instructions || rep.Seed != want.Seed {
			t.Errorf("base %+v: stamped instructions=%d seed=%d, want %+v", b, rep.Instructions, rep.Seed, *want)
		}
	}
	if v, ok := rep.Float("t", "a", "v"); !ok || v != 1.5 {
		t.Errorf("Float lookup = %v, %v", v, ok)
	}

	// Validation failures surface before the driver runs.
	bad := newDemo().(*demoConfig)
	bad.Rounds = -1
	if _, err := RunWith(context.Background(), nil, e, bad); err == nil {
		t.Error("invalid config not rejected")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	e := Experiment{Name: "demo-dup", New: newDemo,
		Run: func(context.Context, Config) (*Report, error) { return &Report{}, nil }}
	Register(e)
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(e)
}

func TestAllSorted(t *testing.T) {
	names := make([]string, 0)
	for _, e := range All() {
		names = append(names, e.Name)
	}
	if !sortedStrings(names) {
		t.Errorf("All() not name-sorted: %v", names)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

func TestReportJSONRoundTrip(t *testing.T) {
	// Wall is execution metadata excluded from JSON, so a
	// round-trippable report leaves it zero.
	rep := &Report{Schema: ReportSchema, Experiment: "demo", Summary: "s",
		Instructions: 123, Seed: 7}
	rep.AddTable(NewTable("grid", "A grid",
		StrCol("bench"), FloatCol("miss", "%.2f"), IntCol("count")).
		AddRow("swim", 67.463333333333338, int64(12)).
		AddRow("gcc", 0.32250806270156757, 99))
	rep.AddSeries(Series{Name: "hist", X: []float64{0.1, 0.2}, Y: []float64{400, 111}})
	rep.Notef("note %d", 1)

	b1, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep, back) {
		t.Errorf("round trip changed the report:\n  in  %+v\n  out %+v", *rep, back)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("re-marshalled JSON differs byte-wise")
	}
	// Full-precision float survived.
	if v, ok := back.Float("grid", "gcc", "miss"); !ok || v != 0.32250806270156757 {
		t.Errorf("float precision lost: %v", v)
	}
	if v, ok := back.Int("grid", "swim", "count"); !ok || v != 12 {
		t.Errorf("int cell lost: %v", v)
	}
}

func TestTableAddRowPanicsOnMismatch(t *testing.T) {
	tb := NewTable("t", "", StrCol("k"), FloatCol("v", ""))
	for _, row := range [][]any{
		{"a"},      // arity
		{"a", "b"}, // kind
		{1.0, 2.0}, // string column fed a float
		{"a", 1},   // int into float column
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddRow(%v) did not panic", row)
				}
			}()
			tb.AddRow(row...)
		}()
	}
}

func TestRenderShowsTablesSeriesNotes(t *testing.T) {
	rep := &Report{Experiment: "demo", Summary: "a demo", Instructions: 10, Seed: 2}
	rep.AddTable(NewTable("grid", "The grid", StrCol("bench"), FloatCol("miss", "%.2f")).
		AddRow("swim", 67.46))
	rep.AddSeries(Series{Name: "hist a2", X: []float64{0.1}, Y: []float64{400}})
	rep.Notef("paper reports ~90%%")
	out := rep.RenderString()
	for _, want := range []string{
		"demo — a demo", "instructions=10", "The grid", "bench", "swim", "67.46",
		"hist a2 (n=400)", "###", "paper reports ~90%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}
