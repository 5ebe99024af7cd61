package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// testBench builds repro into a temp directory and returns a bench at
// the smallest scale.
func testBench(t *testing.T, traced bool) *bench {
	t.Helper()
	dir := t.TempDir()
	repro := filepath.Join(dir, "repro")
	if out, err := exec.Command("go", "build", "-o", repro, "repro/cmd/repro").CombinedOutput(); err != nil {
		t.Fatalf("go build repro: %v\n%s", err, out)
	}
	work := filepath.Join(dir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		t.Fatal(err)
	}
	b := &bench{build: dir, work: work, repro: repro, seed: 3, seconds: 1, nproc: runtime.GOMAXPROCS(0)}
	b.host = probeHost(b.nproc)
	if traced {
		b.tr = newTracer()
	}
	return b
}

// declared returns the metric names and units BENCHMARK.json declares
// under key.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// sameMetrics fails unless got holds exactly the declared names, each
// with its declared unit and a finite value.
func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	var missing, extra []string
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			missing = append(missing, name)
		case m.Unit != unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Errorf("%s: missing %v, undeclared %v", what, missing, extra)
	}
	if _, err := json.Marshal(got); err != nil {
		t.Errorf("%s: metrics do not encode: %v", what, err)
	}
}

func run(t *testing.T, b *bench, name string) *outcome {
	t.Helper()
	b.resetCounts()
	var o *outcome
	var err error
	switch name {
	case "reproduce":
		o, err = b.reproduce(context.Background())
	case "serve":
		o, err = b.serve(context.Background())
	case "replay":
		o, err = b.replay(context.Background())
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return o
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	want := declared(t, "end_to_end")
	b := testBench(t, false)
	for _, name := range []string{"reproduce", "serve", "replay"} {
		o := run(t, b, name)
		if b.failed != 0 || b.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", name, b.failed, b.attempted, b.failures)
		}
		sameMetrics(t, name, o.endToEnd(), want)
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	b := testBench(t, true)
	o := run(t, b, "reproduce")
	m, err := b.layers(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Errorf("%d of %d ops failed: %v", b.failed, b.attempted, b.failures)
	}
	sameMetrics(t, "per-layer", m, declared(t, "per_layer"))
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := b.tr.write(path, b.host); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	raw, _ := os.ReadFile(path)
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("spans file: %v, %d spans", err, len(doc.Spans))
	}
	for _, s := range doc.Spans {
		if s.EndNS < s.StartNS || s.Op == "" {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// TestChecksCatchCorruption injects one corrupted output per check and
// requires it to be counted as a failed op.
func TestChecksCatchCorruption(t *testing.T) {
	cases := []struct {
		workload, what, msg string
		corrupt             func([]byte) []byte
	}{
		{"serve", "serve.body", "body differs", func(b []byte) []byte {
			b = bytes.Clone(b)
			b[len(b)/2] ^= 1
			return b
		}},
		{"replay", "replay.timed", "direct cache.Cache replay", func(b []byte) []byte {
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.UseNumber()
			var rep map[string]any
			if err := dec.Decode(&rep); err != nil {
				return b
			}
			for _, tab := range rep["tables"].([]any) {
				for _, c := range tab.(map[string]any)["columns"].([]any) {
					if col := c.(map[string]any); col["name"] == "misses" {
						ints := col["ints"].([]any)
						n, _ := ints[0].(json.Number).Int64()
						ints[0] = n + 1
					}
				}
			}
			out, _ := json.Marshal(rep)
			return out
		}},
		{"reproduce", "reproduce.warm", "envelope differs", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"seed"`), []byte(`"Seed"`), 1)
		}},
	}
	b := testBench(t, false)
	for _, c := range cases {
		var done atomic.Bool
		b.tamper = func(what string, out []byte) []byte {
			if what != c.what || !done.CompareAndSwap(false, true) {
				return out
			}
			return c.corrupt(out)
		}
		run(t, b, c.workload)
		if !done.Load() {
			t.Errorf("%s: %s never produced", c.workload, c.what)
		}
		if b.failed != 1 || !strings.Contains(b.failures[0], c.msg) {
			t.Errorf("%s: corrupted %s: %d failed ops %v, want 1 reporting %q", c.workload, c.what, b.failed, b.failures, c.msg)
		}
	}
}
