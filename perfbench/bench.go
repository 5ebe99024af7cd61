package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// bench holds one benchmark invocation's paths, seed, scale and op
// accounting.
type bench struct {
	build string // .bench_build at the checkout root: binaries, fixtures, span files
	work  string // per-invocation scratch (stores, temp files), removed at exit
	repro string // the repro binary built from the checkout
	seed  uint64
	// seconds sizes every timed phase (see README.md, "Scale").
	seconds int
	nproc   int
	host    host
	tr      *tracer // nil unless this is the traced run

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	dirs      int

	// tamper, when set, rewrites a program output before it is checked.
	// Only the self-test sets it, to prove each check fires.
	tamper func(what string, out []byte) []byte
}

func newBench(root string, seed uint64, seconds int, traced bool) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	b := &bench{
		build:   filepath.Join(root, ".bench_build"),
		repro:   filepath.Join(root, ".bench_build", "repro"),
		seed:    seed,
		seconds: seconds,
		nproc:   runtime.GOMAXPROCS(0),
	}
	if _, err := os.Stat(b.repro); err != nil {
		return nil, fmt.Errorf("repro binary missing (run through run.sh): %w", err)
	}
	if err := os.MkdirAll(b.build, 0o755); err != nil {
		return nil, err
	}
	if b.work, err = os.MkdirTemp(b.build, "run-"); err != nil {
		return nil, err
	}
	b.host = probeHost(b.nproc)
	if traced {
		b.tr = newTracer()
	}
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.work) }

// dir returns a fresh empty directory under the invocation's scratch.
func (b *bench) dir(prefix string) string {
	b.mu.Lock()
	b.dirs++
	n := b.dirs
	b.mu.Unlock()
	d := filepath.Join(b.work, fmt.Sprintf("%s-%d", prefix, n))
	os.MkdirAll(d, 0o755)
	return d
}

func (b *bench) resetCounts() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted, b.failed, b.failures = 0, 0, nil
}

// count records one attempted op; a non-nil err marks it failed.
func (b *bench) count(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		b.failures = append(b.failures, err.Error())
	}
}

// tampered passes a program output through the self-test hook.
func (b *bench) tampered(what string, out []byte) []byte {
	if b.tamper == nil {
		return out
	}
	return b.tamper(what, out)
}

// rounds is how many times each workload repeats its set-up, timed job
// and fast-path ops.  Interleaving the repetitions spreads each metric's
// samples over the whole run, so a slow stretch of a shared host moves
// one round rather than the median.
const rounds = 3

// share is round r's share of n items split over the rounds.
func share(n, r int) int { return n*(r+1)/rounds - n*r/rounds }

// calibrate times a fixed kernel owned by the benchmark, a 4-way LRU
// cache simulation over pseudo-random addresses in a 1 MiB table, and
// returns the median of samples runs in ms.  It describes how fast the
// host was while the run measured, independently of the program under
// test.
func calibrate(samples int) float64 {
	type line struct{ tag, age uint64 }
	sets := make([]line, 4<<14)
	run := func(n int, x uint64) {
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			addr := (x >> 33) & (1<<22 - 1)
			set := sets[(addr>>5)&(1<<14-1)*4:][:4]
			tag, oldest, hit := addr>>19, 0, false
			for w := range set {
				if set[w].tag == tag {
					set[w].age, hit = uint64(i), true
					break
				}
				if set[w].age < set[oldest].age {
					oldest = w
				}
			}
			if !hit {
				set[oldest] = line{tag, uint64(i)}
			}
		}
	}
	run(1<<20, 0)
	var ds []float64
	for i := 0; i < samples; i++ {
		t0 := time.Now()
		run(1<<19, uint64(i))
		ds = append(ds, ms(time.Since(t0)))
	}
	return median(ds)
}

// settle flushes the pages set-up wrote, so that background writeback
// does not overlap the timed phase.
func settle() { syscall.Sync() }

// proc is one finished repro process.
type proc struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // the process's own max RSS
	stdout []byte
	stderr []byte
	err    error // non-zero exit or failure to start
}

// command prepares a repro process in the invocation's scratch.  The
// kernel kills it if the benchmark dies first, so no run can leave a
// server or a simulation behind.
func (b *bench) command(args ...string) *exec.Cmd {
	cmd := exec.Command(b.repro, args...)
	cmd.Dir = b.work
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// exec runs the repro binary to completion as one op, under a span
// named after its subcommand.
func (b *bench) exec(op string, args ...string) proc {
	sp := b.tr.begin(op, "repro "+args[0], 0)
	defer b.tr.end(sp)
	cmd := b.command(args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	p := proc{wall: time.Since(t0), stdout: out.Bytes(), stderr: errb.Bytes()}
	if st := cmd.ProcessState; st != nil {
		p.cpu = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		p.err = fmt.Errorf("repro %s: %v: %s", strings.Join(args, " "), err, lastLine(p.stderr))
	}
	return p
}

func lastLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// outcome is one workload run's measurements.
type outcome struct {
	setup []float64 // s, one per set-up repetition
	wall  float64   // s, the cold timed job
	fast  []float64 // ms, one per fast-path op
	rss   []float64 // MB, per round the largest max-RSS of any repro process
	// cpu and cpuWall sum the timed ops' child CPU time and wall time,
	// for runner.core_util.
	cpu, cpuWall time.Duration
	// calib holds one calibrate result per round.
	calib []float64
	// figures are the workload's own figures (README.md names them),
	// printed beside the contract metrics.
	figures []figure
	// envelope is the reproduce workload's cold `repro all` output,
	// which the traced run compares with in-process reports.
	envelope []byte
}

type figure struct {
	name  string
	value float64
	unit  string
	note  string
}

// peak records a max-RSS seen in round r.
func (o *outcome) peak(r int, mb float64) {
	for len(o.rss) <= r {
		o.rss = append(o.rss, 0)
	}
	o.rss[r] = max(o.rss[r], mb)
}

func (o *outcome) fig(name string, value float64, unit, note string) {
	o.figures = append(o.figures, figure{name, value, unit, note})
}

// endToEnd returns the contract's end-to-end metrics.
func (o *outcome) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":     {median(o.setup), "s"},
		"wall_s":      {o.wall, "s"},
		"p50_ms":      {quantile(o.fast, 0.5), "ms"},
		"peak_rss_mb": {median(o.rss), "MB"},
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// host is the block every result states: where the numbers came from.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	ReplayK    int    `json:"replay_k"`
}

func probeHost(k int) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), ReplayK: k}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPU = strings.TrimSpace(val)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

func (h host) line() string {
	return fmt.Sprintf("host: nproc %d, GOMAXPROCS %d, cpu %q, %s, kernel %s, replay K %d",
		h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.Kernel, h.ReplayK)
}

// tracer records spans in memory; the traced run writes them as one
// JSON file at the end.  A nil *tracer records nothing, so untraced
// runs pay one nil check per op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call: its op (spans of one op share it), name,
// parent span id (0 for none) and offsets from the start of the run.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      string `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(op, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNS: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
}

// write stores the spans, with each name's total and self time, as one
// JSON document.
func (t *tracer) write(path string, h host) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type total struct {
		Name   string  `json:"name"`
		Count  int     `json:"count"`
		TotalS float64 `json:"total_s"`
		SelfS  float64 `json:"self_s"`
	}
	// Self time is a span's duration minus the time its children cover.
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*total{}
	var names []string
	for _, s := range t.spans {
		tt := byName[s.Name]
		if tt == nil {
			tt = &total{Name: s.Name}
			byName[s.Name] = tt
			names = append(names, s.Name)
		}
		d := s.EndNS - s.StartNS
		tt.Count++
		tt.TotalS += float64(d) / 1e9
		if self := d - child[s.ID]; self > 0 {
			tt.SelfS += float64(self) / 1e9
		}
	}
	totals := make([]total, len(names))
	for i, n := range names {
		totals[i] = *byName[n]
	}
	doc := struct {
		Host   host    `json:"host"`
		Totals []total `json:"totals"`
		Spans  []span  `json:"spans"`
	}{h, totals, t.spans}
	blob, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
