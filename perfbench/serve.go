package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
	// Register every experiment, for the in-process reference runs.
	_ "repro/internal/experiments"
)

// The serve workload's traffic: Grid/stackdist experiments at a small
// scale, a warm set of serveWarmSeeds seeds per experiment, and a
// request sequence in which one request in serveFreshEvery asks for a
// never-seen seed.
var serveExperiments = []string{"stddev", "sweep", "threec", "curves", "missratio"}

const (
	serveInstructions = 20_000
	serveWarmSeeds    = 8
	serveFreshEvery   = 10
)

// request is one submission: an experiment at serveInstructions and a
// seed.
type request struct {
	exp   string
	seed  uint64
	fresh bool
}

func (r request) config() []byte {
	return fmt.Appendf(nil, `{"instructions":%d,"seed":%d}`, serveInstructions, r.seed)
}

func (r request) body() []byte {
	return fmt.Appendf(nil, `{"experiment":%q,"config":%s}`, r.exp, r.config())
}

// servePlan derives the warm set and the timed request sequence (120
// requests per second of scale) from the workload seed.  Plan 0 is the
// serve workload's; the traced run's layer suite draws plan 1, the same
// mix over seeds no earlier phase of the run has simulated.
func (b *bench) servePlan(plan uint64) (warm, seq []request) {
	base := b.seed*100_000 + plan*50_000 + 1
	for _, e := range serveExperiments {
		for j := uint64(0); j < serveWarmSeeds; j++ {
			warm = append(warm, request{exp: e, seed: base + j})
		}
	}
	// Exactly one request in serveFreshEvery is fresh, at seeded
	// positions, cycling through the experiments: every seed then asks
	// for the same amount of simulation, so only its order and seeds
	// vary.
	rng := rand.New(rand.NewPCG(b.seed, 0x5e12e+plan))
	n := 120 * b.seconds
	fresh := make([]bool, n)
	for _, i := range rng.Perm(n)[:n/serveFreshEvery] {
		fresh[i] = true
	}
	k := uint64(0)
	for i := 0; i < n; i++ {
		if fresh[i] {
			e := serveExperiments[k%uint64(len(serveExperiments))]
			seq = append(seq, request{exp: e, seed: base + 1000 + k, fresh: true})
			k++
		} else {
			seq = append(seq, warm[rng.IntN(len(warm))])
		}
	}
	return warm, seq
}

// reference returns exp.WriteJSON of an in-process, uncached exp.Run of
// r's config: the bytes every 200 response for r must carry.
func reference(ctx context.Context, r request) ([]byte, error) {
	e, ok := exp.Get(r.exp)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", r.exp)
	}
	cfg, err := exp.DecodeConfig(e, r.config())
	if err != nil {
		return nil, err
	}
	rep, err := exp.RunWith(ctx, nil, e, cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := exp.WriteJSON(&buf, rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// server is one running `repro serve` process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the server's stderr reaches EOF
}

// startServer launches `repro serve` on a free loopback port over the
// store at dir and waits until /healthz answers.
func (b *bench) startServer(ctx context.Context, client *http.Client, dir string) (*server, error) {
	cmd := b.command("serve", "-addr", "127.0.0.1:0", "-cache-dir", dir)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				u, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- u:
				default:
				}
			}
		}
	}()
	deadline := time.After(30 * time.Second)
	select {
	case s.url = <-addr:
	case <-s.done:
		s.stop()
		return nil, fmt.Errorf("repro serve exited before listening")
	case <-deadline:
		s.stop()
		return nil, fmt.Errorf("repro serve did not announce its address")
	}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-deadline:
			s.stop()
			return nil, fmt.Errorf("repro serve /healthz never answered")
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop drains the server with SIGTERM (killing it if the drain hangs),
// waits for it to exit and returns its max RSS.
func (s *server) stop() (rssMB float64, err error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(30*time.Second, func() { s.cmd.Process.Kill() })
	defer kill.Stop()
	<-s.done
	err = s.cmd.Wait()
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	return rssMB, err
}

// cpuTime reads the server's user+system CPU time from /proc.
func (s *server) cpuTime() time.Duration {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, in clock ticks.
	_, rest, _ := strings.Cut(string(raw), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const ticksPerSecond = 100 // Linux USER_HZ
	return time.Duration(ut+st) * time.Second / ticksPerSecond
}

// reply is one completed submission.
type reply struct {
	req    request
	status int
	hit    bool
	lat    time.Duration // send to last body byte
	sum    [32]byte      // sha256 of the body
	err    error
}

// post drives reqs through the server as a closed loop of one client,
// which sends each request once the previous reply has been read, and
// returns the replies in request order.  Each request is one op,
// spanned under parent.  One client keeps a hit's latency the fast
// path's own: with nproc clients a hit often waited behind another
// client's simulation for a 10 ms preemption slice, and the run-to-run
// spread of the hit median tripled.
func (b *bench) post(ctx context.Context, client *http.Client, url string, reqs []request, op string, parent int) []reply {
	out := make([]reply, len(reqs))
	for i, r := range reqs {
		if ctx.Err() != nil {
			break
		}
		sp := b.tr.begin(fmt.Sprintf("%s-%d", op, i), "POST /v1/jobs?wait=1", parent)
		out[i] = b.submit(ctx, client, url, r)
		b.tr.end(sp)
	}
	return out
}

func (b *bench) submit(ctx context.Context, client *http.Client, url string, r request) reply {
	rp := reply{req: r}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs?wait=1", bytes.NewReader(r.body()))
	if err != nil {
		rp.err = err
		return rp
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		rp.err = err
		return rp
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.lat = time.Since(t0)
	rp.status = resp.StatusCode
	rp.hit = resp.Header.Get("X-Repro-Cache") == "hit"
	rp.sum = sha256.Sum256(b.tampered("serve.body", body))
	rp.err = err
	return rp
}

// stats fetches /v1/stats.
func stats(ctx context.Context, client *http.Client, url string) (st struct {
	Store struct {
		Writes uint64 `json:"writes"`
	} `json:"store"`
	Coalesced uint64 `json:"coalesced"`
	Rejected  uint64 `json:"rejected"`
}, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// serve runs the multi-tenant service workload.  Each round starts a
// server on an empty store and fills the warm set as set-up, then posts
// its third of the request sequence as the timed job; the fast-path hits
// among those requests are the fast-path ops.
func (b *bench) serve(ctx context.Context) (*outcome, error) {
	o := &outcome{}
	warm, seq := b.servePlan(0)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 2 * time.Minute}

	var replies, load []reply
	var writes, coalesced, rejected uint64
	for r, lo := 0, 0; r < rounds && ctx.Err() == nil; r++ {
		t0 := time.Now()
		srv, err := b.startServer(ctx, client, b.dir("serve-store"))
		if err != nil {
			return nil, err
		}
		replies = append(replies, b.post(ctx, client, srv.url, warm, fmt.Sprintf("fill-%d", r), 0)...)
		o.setup = append(o.setup, time.Since(t0).Seconds())
		settle()

		part := seq[lo : lo+share(len(seq), r)]
		lo += len(part)
		o.calib = append(o.calib, calibrate(20))
		before, err := stats(ctx, client, srv.url)
		if err != nil {
			srv.stop()
			return nil, err
		}
		cpu0 := srv.cpuTime()
		t0 = time.Now()
		load = append(load, b.post(ctx, client, srv.url, part, fmt.Sprintf("req-%d", r), 0)...)
		wall := time.Since(t0)
		o.wall += wall.Seconds()
		o.cpu += srv.cpuTime() - cpu0
		o.cpuWall += wall
		after, err := stats(ctx, client, srv.url)
		rss, stopErr := srv.stop()
		if err != nil {
			return nil, err
		}
		b.count(stopErr)
		o.peak(r, rss)
		writes += after.Store.Writes - before.Store.Writes
		coalesced += after.Coalesced - before.Coalesced
		rejected += after.Rejected - before.Rejected
	}
	replies = append(replies, load...)

	// Every 200 body must equal the in-process reference for its config.
	want := map[request][32]byte{}
	for _, rp := range replies {
		key := request{exp: rp.req.exp, seed: rp.req.seed}
		if _, ok := want[key]; ok {
			continue
		}
		ref, err := reference(ctx, key)
		if err != nil {
			return nil, fmt.Errorf("reference run %s seed %d: %w", key.exp, key.seed, err)
		}
		want[key] = sha256.Sum256(ref)
	}
	for _, rp := range replies {
		err := rp.err
		switch {
		case err != nil:
		case rp.status != http.StatusOK:
			err = fmt.Errorf("%s seed %d: HTTP %d", rp.req.exp, rp.req.seed, rp.status)
		case rp.sum != want[request{exp: rp.req.exp, seed: rp.req.seed}]:
			err = fmt.Errorf("%s seed %d: body differs from exp.WriteJSON of an in-process exp.Run", rp.req.exp, rp.req.seed)
		}
		b.count(err)
	}
	var misses []float64
	for _, rp := range load {
		if rp.hit {
			o.fast = append(o.fast, ms(rp.lat))
		} else {
			misses = append(misses, ms(rp.lat))
		}
	}

	o.fig("setup_s", median(o.setup), "s", fmt.Sprintf("median of %d server starts plus %d-config warm fills", len(o.setup), len(warm)))
	o.fig("req_per_s", float64(len(load))/o.wall, "req/s", fmt.Sprintf("%d requests over %d servers, one closed-loop client", len(load), rounds))
	o.fig("hit_p50_ms", quantile(o.fast, 0.5), "ms", fmt.Sprintf("%d fast-path hits", len(o.fast)))
	o.fig("hit_p95_ms", quantile(o.fast, 0.95), "ms", "")
	o.fig("miss_p50_ms", quantile(misses, 0.5), "ms", fmt.Sprintf("%d simulated", len(misses)))
	o.fig("miss_p90_ms", quantile(misses, 0.9), "ms", "")
	o.fig("peak_rss_mb", median(o.rss), "MB", "max-RSS of each round's server, median over rounds")
	o.fig("store_writes_per_miss", float64(writes)/float64(max(len(misses), 1)), "count", "from /v1/stats")
	o.fig("coalesced", float64(coalesced), "count", "")
	o.fig("rejected", float64(rejected), "count", "")
	return o, ctx.Err()
}
