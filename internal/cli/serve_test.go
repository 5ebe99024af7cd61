package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// syncBuffer is a bytes.Buffer safe for the serveMain goroutine and the
// test to share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (http://[^ ]+)`)

// startServe runs `repro serve` in-process on a free port and returns
// its base URL plus a stop function asserting a clean (code 0) exit.
func startServe(t *testing.T, extra ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout bytes.Buffer
	stderr := &syncBuffer{}
	exit := make(chan int, 1)
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...)
	go func() { exit <- Run(ctx, args, &stdout, stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	var base string
	for base == "" {
		if m := listenRE.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case code := <-exit:
			t.Fatalf("repro serve exited early with %d: %s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return base, func() {
		cancel()
		select {
		case code := <-exit:
			if code != 0 {
				t.Errorf("repro serve exited %d after drain: %s", code, stderr.String())
			}
		case <-time.After(15 * time.Second):
			t.Error("repro serve did not stop after cancellation")
		}
		out := stderr.String()
		if !strings.Contains(out, "draining") || !strings.Contains(out, "stopped") {
			t.Errorf("drain lifecycle not announced on stderr:\n%s", out)
		}
	}
}

// TestServeEndToEnd is the cross-layer smoke: the served result
// envelope is byte-identical to the direct CLI's -json output, the warm
// resubmission rides the cache fast path with the same bytes, the
// experiment listing matches `repro list -json`, and cancellation
// drains to a zero exit.
func TestServeEndToEnd(t *testing.T) {
	// Direct CLI outputs first: serveMain installs the process-global
	// cache while it runs, and -no-cache runs must not race with it.
	direct := runCLI(t, "stddev", "-instructions", "4000", "-seed", "7", "-no-cache", "-json")
	listing := runCLI(t, "list", "-json")

	base, stop := startServe(t, "-cache-dir", t.TempDir())
	defer stop()
	body := `{"experiment": "stddev", "config": {"instructions": 4000, "seed": 7}}`

	post := func() (*http.Response, string) {
		resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}

	resp, cold := post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold submission: HTTP %d: %s", resp.StatusCode, cold)
	}
	if cold != direct {
		t.Errorf("served envelope differs from `repro stddev -json`:\n--- served\n%s\n--- direct\n%s", cold, direct)
	}

	resp, warm := post()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Repro-Cache") != "hit" {
		t.Fatalf("warm submission: HTTP %d, cache header %q", resp.StatusCode, resp.Header.Get("X-Repro-Cache"))
	}
	if warm != direct {
		t.Errorf("fast-path envelope differs from `repro stddev -json`")
	}

	lresp, err := http.Get(base + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(served) != listing {
		t.Errorf("/v1/experiments differs from `repro list -json` (%d vs %d bytes)", len(served), len(listing))
	}
}

// TestServeTraceFileFastPathHashes pins that a fast-path hit on a
// trace file the server has already hashed reads the file no more:
// the submission's result key and the cache probe both take the
// digest from the memo.
func TestServeTraceFileFastPathHashes(t *testing.T) {
	tf := filepath.Join(t.TempDir(), "t.din")
	runCLI(t, "tracegen", "-bench", "tomcatv", "-n", "3000", "-mem", "-o", tf)
	m := freshDigests(t)
	base, stop := startServe(t, "-cache-dir", t.TempDir(), "-allow-trace-files")
	defer stop()
	body := `{"experiment": "replay", "config": {"instructions": 3000, "tracefile": ` + strconv.Quote(tf) + `}}`
	post := func() *http.Response {
		resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := post(); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold submission: HTTP %d", resp.StatusCode)
	}
	before := m.Stats()
	if resp := post(); resp.Header.Get("X-Repro-Cache") != "hit" {
		t.Fatalf("warm submission: HTTP %d, cache header %q", resp.StatusCode, resp.Header.Get("X-Repro-Cache"))
	}
	if after := m.Stats(); after.Hashes != before.Hashes || after.Hits != before.Hits+2 {
		t.Errorf("fast-path hit: memo %+v after %+v, want no hash and 2 memo hits", after, before)
	}
}

// TestServeRejectsTraceFileForSyntheticExperiment pins that a server
// open to trace files answers a synthetic-only experiment naming one
// with 400 invalid config, without hashing the file or queueing a job.
func TestServeRejectsTraceFileForSyntheticExperiment(t *testing.T) {
	tf := filepath.Join(t.TempDir(), "t.din")
	runCLI(t, "tracegen", "-bench", "tomcatv", "-n", "3000", "-mem", "-o", tf)
	m := freshDigests(t)
	base, stop := startServe(t, "-cache-dir", t.TempDir(), "-allow-trace-files")
	defer stop()
	body := `{"experiment": "table2", "config": {"instructions": 3000, "tracefile": ` + strconv.Quote(tf) + `}}`
	resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var eb serve.ErrorBody
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(b, &eb) != nil ||
		!strings.HasPrefix(eb.Error, "invalid config: -tracefile is not supported") {
		t.Errorf("HTTP %d %s, want 400 invalid config", resp.StatusCode, b)
	}
	if st := m.Stats(); st.Hashes != 0 || st.Hits != 0 {
		t.Errorf("the rejected submission read the trace file's digest: %+v", st)
	}
	sresp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.StatsResponse
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil || st.Submitted != 0 {
		t.Errorf("the rejected submission was queued: %+v (%v)", st, err)
	}
}

// TestCacheStatsLineEndsWithStoreLine pins the shared-formatter
// contract: the `repro all` stderr summary renders the artifact store's
// counters through the exact store.Stats.Line string /v1/stats serves.
func TestCacheStatsLineEndsWithStoreLine(t *testing.T) {
	ds := store.Stats{Hits: 3, Misses: 2, Writes: 4, Evictions: 1, Corruptions: 1}
	line := cacheStatsLine("repro all", true, exp.CacheStats{Hits: 1, Misses: 2, Writes: 2}, tracestore.Stats{}, trace.DigestStats{}, experiments.CoreStats{}, ds)
	if !strings.HasSuffix(line, "; "+ds.Line()) {
		t.Errorf("stats line %q does not end with the shared store line %q", line, ds.Line())
	}
	if !strings.Contains(line, "store: 3 hits, 2 misses, 4 writes, 1 evictions, 1 corruptions") {
		t.Errorf("store.Stats.Line rendering changed: %q", line)
	}
}

// TestServeHTTPTimeouts pins the server's slow-client defenses: a
// header deadline and an idle deadline, and no write deadline, which
// would cut off ?wait=1 long polls.
func TestServeHTTPTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Errorf("WriteTimeout %v, ReadTimeout %v: want none (long polls hold the response for a whole job)",
			hs.WriteTimeout, hs.ReadTimeout)
	}
}

// TestServeRejectsImpossibleGeometry pins the 400 for a replay config
// whose cache geometry no index function can serve: the client gets the
// reason, not a handler panic and an empty reply.
func TestServeRejectsImpossibleGeometry(t *testing.T) {
	s := serve.New(serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "replay", "config": {"bench": "gcc", "addrbits": 100}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "hashes 95 block-address bits") {
		t.Fatalf("HTTP %d: %s; want 400 naming the hash width", resp.StatusCode, b)
	}
}

// TestServeRejectsCrashingConfigs pins the 400 for parameters that used
// to panic or exhaust memory inside a runner job and take the whole
// server down, or to measure nothing, and for unknown fields (shards
// and workers, counts derived from GOMAXPROCS):
// each request gets the reason, and the server stays healthy afterwards.
func TestServeRejectsCrashingConfigs(t *testing.T) {
	s := serve.New(serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	for _, tc := range []struct{ body, want string }{
		{`{"experiment": "curves", "config": {"max_ways": -1}}`, "max-ways must be in [0, 64]"},
		{`{"experiment": "curves", "config": {"max_ways": 65}}`, "max-ways must be in [0, 64]"},
		{`{"experiment": "interleave", "config": {"maxstride": 1}}`, "maxstride must be 0 (the default) or at least 2"},
		{`{"experiment": "fig1", "config": {"rounds": 1}}`, "rounds must be 0 (the default) or at least 2"},
		{`{"experiment": "sweep", "config": {"shards": 2}}`, `unknown field \"shards\"`},
		{`{"experiment": "sweep", "config": {"workers": 2}}`, `unknown field \"workers\"`},
		// Values that size an allocation past what a job can hold: out of
		// memory is a fatal runtime error, not a panic a worker recovers.
		{`{"experiment": "replay", "config": {"bench": "gcc", "scheme": "a2", "size": 68719476736, "block": 32, "ways": 8, "instructions": 100}}`,
			"2147483648 lines (size/block) exceed the limit of 1048576"},
		{`{"experiment": "fig1", "config": {"rounds": 100000000, "maxstride": 3}}`, "rounds must be at most 4096, got 100000000"},
		{`{"experiment": "fig1", "config": {"maxstride": 1000000000000, "rounds": 2}}`, "maxstride must be at most 1048576, got 1000000000000"},
		{`{"experiment": "interleave", "config": {"maxstride": 1048577}}`, "maxstride must be at most 1048576, got 1048577"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), tc.want) {
			t.Fatalf("%s: HTTP %d: %s; want 400 containing %q", tc.body, resp.StatusCode, b, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz answered %d after the rejected requests, want 200", resp.StatusCode)
	}
}
