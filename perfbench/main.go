// Command perfbench is the repository's benchmark: it builds nothing
// itself (run.sh builds the repro CLI and this binary from the checkout),
// runs one workload against the real `repro` binary, checks the
// program's outputs, and prints every metric by name and unit.  The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is repeated with spans around every op and every call into a
// layer's public functions, and the metrics are the per-layer ones.
// README.md in this directory defines the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	root := flag.String("root", "..", "repository checkout holding the repro sources and .bench_build/")
	workload := flag.String("workload", "", "reproduce, serve, replay, or all")
	seed := flag.Uint64("seed", 1, "workload seed: every input derives from it")
	seconds := flag.Int("seconds", 10, "size of the timed phase, in seconds of work on the reference host")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var names []string
	switch *workload {
	case "reproduce", "serve", "replay":
		names = []string{*workload}
	case "all":
		names = []string{"reproduce", "serve", "replay"}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want reproduce, serve, replay or all)\n", *workload)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b, err := newBench(*root, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defer b.cleanup()
	fmt.Println(b.host.line())

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		r, err := b.runWorkload(ctx, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			b.cleanup()
			os.Exit(1)
		}
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Correct = res.Correct && r.Correct
		for k, v := range r.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			res.Metrics[k] = v
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result is the contract line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload (traced or not), prints its figures and
// returns its contract result.
func (b *bench) runWorkload(ctx context.Context, name string) (result, error) {
	b.resetCounts()
	if b.tr != nil {
		b.tr.reset()
	}
	var o *outcome
	var err error
	switch name {
	case "reproduce":
		o, err = b.reproduce(ctx)
	case "serve":
		o, err = b.serve(ctx)
	case "replay":
		o, err = b.replay(ctx)
	}
	if err != nil {
		return result{}, err
	}
	metrics := o.endToEnd()
	if b.tr != nil {
		if metrics, err = b.layers(ctx, o); err != nil {
			return result{}, err
		}
		path := filepath.Join(b.build, fmt.Sprintf("spans-%s-seed%d.json", name, b.seed))
		if err := b.tr.write(path, b.host); err != nil {
			return result{}, err
		}
		fmt.Printf("spans: %d written to %s\n", b.tr.len(), path)
	}
	r := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	b.print(name, o, r)
	return r, nil
}

// print writes the human-readable block for one workload: the contract
// metrics, the workload's named figures, and the op counts.
func (b *bench) print(name string, o *outcome, r result) {
	fmt.Printf("workload %s seed %d seconds %d trace %v: attempted %d, failed %d, failed_frac %g\n",
		name, b.seed, b.seconds, b.tr != nil, r.Attempted, r.Failed, fraction(r.Failed, r.Attempted))
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-36s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	if b.tr == nil {
		fmt.Printf("  figures:\n")
		fmt.Printf("    %-34s %14.6g %-6s %s\n", "host_calib_ms", median(o.calib), "ms", "benchmark-owned calibration kernel, median over rounds")
		for _, f := range o.figures {
			fmt.Printf("    %-34s %14.6g %-6s %s\n", f.name, f.value, f.unit, f.note)
		}
	}
	for i, msg := range b.failures {
		if i == 10 {
			fmt.Printf("  ... %d more failures\n", len(b.failures)-i)
			break
		}
		fmt.Printf("  FAILED: %s\n", msg)
	}
}

func fraction(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
