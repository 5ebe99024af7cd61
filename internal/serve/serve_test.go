package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/store"
)

// svcConfig is the synthetic experiment config driven by the handler
// tests: json-tagged like a real config, with a validating parameter.
type svcConfig struct {
	exp.Base
	Rounds int `json:"rounds" flag:"rounds" help:"work units (must be >= 0)"`
}

func (c *svcConfig) Validate() error {
	if c.Rounds < 0 {
		return fmt.Errorf("rounds must be >= 0, got %d", c.Rounds)
	}
	return nil
}

// regTestExp registers a synthetic experiment whose body is the given
// hook (nil = return immediately) and unregisters it at cleanup.
func regTestExp(t *testing.T, name string, hook func(ctx context.Context, c *svcConfig) error) exp.Experiment {
	t.Helper()
	exp.Register(exp.Experiment{
		Name:    name,
		Summary: "synthetic service-test experiment",
		Rev:     1,
		New: func() exp.Config {
			return &svcConfig{Base: exp.Base{Instructions: 1000, Seed: 1}, Rounds: 3}
		},
		Run: func(ctx context.Context, cfg exp.Config) (*exp.Report, error) {
			c := cfg.(*svcConfig)
			if hook != nil {
				if err := hook(ctx, c); err != nil {
					return nil, err
				}
			}
			rep := &exp.Report{}
			rep.Notef("rounds=%d seed=%d", c.Rounds, c.Seed)
			return rep, nil
		},
	})
	t.Cleanup(func() { exp.Unregister(name) })
	e, _ := exp.Get(name)
	return e
}

// newTestServer builds a Server of workers workers (0: the derived
// GOMAXPROCS) plus its httptest front end, torn down at cleanup.
func newTestServer(t *testing.T, workers int, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	testWorkers = workers
	s := New(opts)
	testWorkers = 0
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// post submits body to /v1/jobs and returns the response with its body
// read out.
func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// get fetches path and returns the response with its body read out.
func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// del issues DELETE /v1/jobs/{id}.
func del(t *testing.T, ts *httptest.Server, id string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// decodeStatus parses a JobStatus document.
func decodeStatus(t *testing.T, b []byte) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("not a job status: %v\n%s", err, b)
	}
	return st
}

// waitState polls a job until it reaches want (or a terminal state).
func waitState(t *testing.T, ts *httptest.Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, b := get(t, ts, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status for %s: HTTP %d: %s", id, resp.StatusCode, b)
		}
		st := decodeStatus(t, b)
		if st.State == want {
			return st
		}
		if terminal(st.State) || time.Now().After(deadline) {
			t.Fatalf("job %s state %q, want %q", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	regTestExp(t, "svc-valid", nil)
	_, ts := newTestServer(t, 1, Options{})
	cases := []struct {
		name     string
		body     string
		wantCode int
		wantSub  string
	}{
		{"unknown experiment", `{"experiment": "no-such-exp", "config": {}}`, 404, "unknown experiment"},
		{"not json", `hello`, 400, "invalid submission body"},
		{"missing experiment", `{"config": {}}`, 400, "missing experiment"},
		{"unknown top-level field", `{"experiment": "svc-valid", "wat": 1}`, 400, "invalid submission body"},
		{"unknown config field", `{"experiment": "svc-valid", "config": {"bogus": 1}}`, 400, "unknown field"},
		{"wrong-typed param", `{"experiment": "svc-valid", "config": {"instructions": "lots"}}`, 400, "cannot unmarshal"},
		{"failing validation", `{"experiment": "svc-valid", "config": {"rounds": -1}}`, 400, "rounds must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := post(t, ts, tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Errorf("HTTP %d, want %d: %s", resp.StatusCode, tc.wantCode, b)
			}
			var eb ErrorBody
			if err := json.Unmarshal(b, &eb); err != nil {
				t.Fatalf("error response is not an ErrorBody: %v\n%s", err, b)
			}
			if !strings.Contains(eb.Error, tc.wantSub) {
				t.Errorf("error %q does not mention %q", eb.Error, tc.wantSub)
			}
		})
	}

	t.Run("unknown job endpoints", func(t *testing.T) {
		for _, path := range []string{"/v1/jobs/j999", "/v1/jobs/j999/result"} {
			if resp, _ := get(t, ts, path); resp.StatusCode != 404 {
				t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
			}
		}
		if resp, _ := del(t, ts, "j999"); resp.StatusCode != 404 {
			t.Errorf("DELETE unknown job = %d, want 404", resp.StatusCode)
		}
	})
}

func TestOversizedBodyRejected(t *testing.T) {
	regTestExp(t, "svc-big", nil)
	_, ts := newTestServer(t, 1, Options{})
	body := fmt.Sprintf(`{"experiment": "svc-big", "config": {}, "pad": %q}`, strings.Repeat("x", maxBody))
	resp, b := post(t, ts, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP %d, want 413: %s", resp.StatusCode, b)
	}
}

// TestSubmitWaitServesEnvelope pins the synchronous path: ?wait=1
// returns the finished repro/report/v1 envelope, byte-identical to the
// shared encoder's rendering of a fresh run.
func TestSubmitWaitServesEnvelope(t *testing.T) {
	e := regTestExp(t, "svc-wait", nil)
	_, ts := newTestServer(t, 1, Options{})
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"experiment": "svc-wait", "config": {"rounds": 5}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}

	cfg, err := exp.DecodeConfig(e, []byte(`{"rounds": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.RunWith(context.Background(), nil, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := exp.WriteJSON(&want, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("served envelope differs from direct run:\n--- served\n%s\n--- direct\n%s", body, want.Bytes())
	}
}

// TestCoalescing is the idempotent-submission pin: identical concurrent
// submissions attach to one job and cost exactly one simulation.
func TestCoalescing(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	var runs atomic.Int64
	regTestExp(t, "svc-coal", func(ctx context.Context, c *svcConfig) error {
		runs.Add(1)
		started <- struct{}{}
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	s, ts := newTestServer(t, 1, Options{})
	body := `{"experiment": "svc-coal", "config": {"rounds": 9}}`

	resp, b := post(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d: %s", resp.StatusCode, b)
	}
	first := decodeStatus(t, b)
	<-started // the job is running and will hold until the gate opens

	const extra = 5
	var wg sync.WaitGroup
	ids := make([]string, extra)
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := post(t, ts, body)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("coalesced submission: HTTP %d: %s", resp.StatusCode, b)
				return
			}
			ids[i] = decodeStatus(t, b).ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id != first.ID {
			t.Errorf("submission %d got job %s, want coalesced onto %s", i, id, first.ID)
		}
	}
	close(gate)
	waitState(t, ts, first.ID, StateDone)
	if n := runs.Load(); n != 1 {
		t.Errorf("%d simulations for %d identical submissions, want exactly 1", n, extra+1)
	}
	if got := s.coalesced.Load(); got != extra {
		t.Errorf("coalesced counter = %d, want %d", got, extra)
	}
}

// TestCacheFastPath pins the synchronous cache hit: the second
// identical submission returns 200 + X-Repro-Cache: hit with the same
// bytes the job produced, without a new job.
func TestCacheFastPath(t *testing.T) {
	regTestExp(t, "svc-cache", nil)
	d, err := store.Open(t.TempDir(), store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	rc := exp.NewResultCache(d)
	s, ts := newTestServer(t, 1, Options{Cache: rc})
	body := `{"experiment": "svc-cache", "config": {"rounds": 4}}`

	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Repro-Cache") == "hit" {
		t.Fatalf("cold run: HTTP %d, cache header %q", resp.StatusCode, resp.Header.Get("X-Repro-Cache"))
	}

	resp2, warm := post(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm submission: HTTP %d: %s", resp2.StatusCode, warm)
	}
	if resp2.Header.Get("X-Repro-Cache") != "hit" {
		t.Errorf("warm submission missing X-Repro-Cache: hit")
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("fast-path envelope differs from the job's:\n--- job\n%s\n--- cache\n%s", cold, warm)
	}
	if got := s.fastpath.Load(); got != 1 {
		t.Errorf("fastpath counter = %d, want 1", got)
	}
}

// TestQueueFullRejects pins admission control: a full queue answers
// 429 with a Retry-After hint, and the queued job reports its position.
func TestQueueFullRejects(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	regTestExp(t, "svc-full", func(ctx context.Context, c *svcConfig) error {
		started <- struct{}{}
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	defer close(gate)
	s, ts := newTestServer(t, 1, Options{MaxQueue: 1})
	sub := func(seed int) string {
		return fmt.Sprintf(`{"experiment": "svc-full", "config": {"seed": %d}}`, seed)
	}

	resp, b := post(t, ts, sub(1)) // picked up by the worker
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, b)
	}
	<-started
	resp, b = post(t, ts, sub(2)) // fills the single queue slot
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, b)
	}
	queued := decodeStatus(t, b)
	if queued.QueuePosition != 1 {
		t.Errorf("queued job position = %d, want 1", queued.QueuePosition)
	}
	resp, b = post(t, ts, sub(3)) // over capacity
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submission: HTTP %d, want 429: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestCancel covers DELETE against all three live states and the
// DELETE-vs-completion race direction where the job already finished.
func TestCancel(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	regTestExp(t, "svc-cancel", func(ctx context.Context, c *svcConfig) error {
		if c.Rounds == 2 { // fast variant completes immediately
			return nil
		}
		started <- struct{}{}
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	defer close(gate)
	_, ts := newTestServer(t, 1, Options{})
	sub := func(seed int) string {
		return fmt.Sprintf(`{"experiment": "svc-cancel", "config": {"seed": %d, "rounds": 1}}`, seed)
	}

	// Cancel while queued: the worker is busy with the first job.
	_, b := post(t, ts, sub(1))
	running := decodeStatus(t, b)
	<-started
	_, b = post(t, ts, sub(2))
	queued := decodeStatus(t, b)
	resp, b := del(t, ts, queued.ID)
	if st := decodeStatus(t, b); resp.StatusCode != 200 || st.State != StateCanceled {
		t.Fatalf("DELETE queued job: HTTP %d state %q, want 200 canceled", resp.StatusCode, st.State)
	}
	if resp, b := get(t, ts, "/v1/jobs/"+queued.ID+"/result"); resp.StatusCode != http.StatusGone {
		t.Errorf("result of canceled job: HTTP %d, want 410: %s", resp.StatusCode, b)
	}

	// Cancel while running: the context must end the simulation.
	del(t, ts, running.ID)
	waitState(t, ts, running.ID, StateCanceled)

	// Cancel after completion: terminal state wins, result stays served.
	resp3, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"experiment": "svc-cancel", "config": {"seed": 3, "rounds": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	key := resp3.Header.Get("X-Repro-Key")
	if key == "" {
		t.Fatal("completed wait response missing X-Repro-Key")
	}
	// Find the finished job through the queue-free stats view.
	var done JobStatus
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, b := get(t, ts, "/v1/jobs/j00000003"); resp.StatusCode == 200 {
			if st := decodeStatus(t, b); st.State == StateDone {
				done = st
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("third job never reported done")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp4, b := del(t, ts, done.ID)
	if st := decodeStatus(t, b); resp4.StatusCode != 200 || st.State != StateDone {
		t.Fatalf("DELETE finished job: HTTP %d state %q, want 200 done (terminal wins)", resp4.StatusCode, st.State)
	}
	if resp, _ := get(t, ts, "/v1/jobs/"+done.ID+"/result"); resp.StatusCode != 200 {
		t.Errorf("result after late DELETE: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestDeleteCompletionRaces hammers DELETE against instantly-completing
// jobs: whatever order wins, the final state must be terminal and the
// result endpoint must agree with it.
func TestDeleteCompletionRaces(t *testing.T) {
	regTestExp(t, "svc-race", nil)
	_, ts := newTestServer(t, 2, Options{})
	for i := 0; i < 25; i++ {
		_, b := post(t, ts, fmt.Sprintf(`{"experiment": "svc-race", "config": {"seed": %d}}`, i+1))
		id := decodeStatus(t, b).ID
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			del(t, ts, id)
		}()
		wg.Wait()
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, b := get(t, ts, "/v1/jobs/"+id)
			st := decodeStatus(t, b)
			if terminal(st.State) {
				resp, _ := get(t, ts, "/v1/jobs/"+id+"/result")
				want := map[State]int{StateDone: 200, StateCanceled: 410, StateFailed: 500}[st.State]
				if resp.StatusCode != want {
					t.Fatalf("state %q but result HTTP %d, want %d", st.State, resp.StatusCode, want)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never reached a terminal state (%q)", id, st.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWaiterDisconnectCancels pins the client-disconnect wiring: when
// the only ?wait=1 submitter goes away, the job's context is cancelled.
func TestWaiterDisconnectCancels(t *testing.T) {
	started := make(chan struct{}, 1)
	regTestExp(t, "svc-disc", func(ctx context.Context, c *svcConfig) error {
		started <- struct{}{}
		<-ctx.Done() // only cancellation can end this job
		return ctx.Err()
	})
	s, ts := newTestServer(t, 1, Options{})

	reqCtx, cancelReq := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, ts.URL+"/v1/jobs?wait=1",
			strings.NewReader(`{"experiment": "svc-disc", "config": {}}`))
		if err != nil {
			errc <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started
	cancelReq() // the client disconnects
	if err := <-errc; err == nil {
		t.Fatal("request was not aborted")
	}

	// The lone waiter left: the job must get cancelled.
	s.jobs.mu.Lock()
	var j *job
	for _, cand := range s.jobs.byID {
		j = cand
	}
	s.jobs.mu.Unlock()
	if j == nil {
		t.Fatal("no job registered")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		if st == StateCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job state %q after waiter disconnect, want canceled", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGracefulShutdownDrains pins the drain contract: submissions are
// rejected with 503 the moment draining starts, the in-flight job runs
// to completion, and its result stays fetchable.
func TestGracefulShutdownDrains(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	regTestExp(t, "svc-drain", func(ctx context.Context, c *svcConfig) error {
		started <- struct{}{}
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	s, ts := newTestServer(t, 1, Options{})
	_, b := post(t, ts, `{"experiment": "svc-drain", "config": {}}`)
	id := decodeStatus(t, b).ID
	<-started

	shutdownErr := make(chan error, 1)
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	go func() { shutdownErr <- s.Shutdown(sctx) }()

	// Draining is visible immediately: health 503, submissions 503.
	deadline := time.Now().Add(5 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("draining flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: HTTP %d, want 503", resp.StatusCode)
	}
	if resp, _ := post(t, ts, `{"experiment": "svc-drain", "config": {"seed": 99}}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: HTTP %d, want 503", resp.StatusCode)
	}

	close(gate) // let the in-flight job finish
	if err := <-shutdownErr; err != nil {
		t.Fatalf("drain did not complete cleanly: %v", err)
	}
	st := waitState(t, ts, id, StateDone)
	if st.State != StateDone {
		t.Fatalf("in-flight job state %q after drain, want done", st.State)
	}
	if resp, _ := get(t, ts, "/v1/jobs/"+id+"/result"); resp.StatusCode != 200 {
		t.Errorf("result after drain: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestShutdownDeadlineCancels pins the other drain half: past the
// deadline, in-flight jobs are cancelled rather than awaited forever.
func TestShutdownDeadlineCancels(t *testing.T) {
	started := make(chan struct{}, 1)
	regTestExp(t, "svc-dead", func(ctx context.Context, c *svcConfig) error {
		started <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	})
	s, ts := newTestServer(t, 1, Options{})
	_, b := post(t, ts, `{"experiment": "svc-dead", "config": {}}`)
	id := decodeStatus(t, b).ID
	<-started

	sctx, scancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer scancel()
	if err := s.Shutdown(sctx); err == nil {
		t.Fatal("Shutdown returned nil despite an undrainable job")
	}
	st := waitState(t, ts, id, StateCanceled)
	if st.State != StateCanceled {
		t.Fatalf("job state %q after deadline, want canceled", st.State)
	}
}

// TestExperimentsEndpointSharedEncoder pins /v1/experiments to the
// exact bytes of the shared encoder over the registry spec — the same
// bytes `repro list -json` emits.
func TestExperimentsEndpointSharedEncoder(t *testing.T) {
	_, ts := newTestServer(t, 1, Options{})
	resp, body := get(t, ts, "/v1/experiments")
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var want bytes.Buffer
	if err := exp.WriteJSON(&want, exp.Specs()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("/v1/experiments differs from the shared encoding (%d vs %d bytes)", len(body), want.Len())
	}
}

// TestStatsEndpoint pins the shape of /v1/stats and that store_line is
// exactly the shared store.Stats.Line rendering of the store counters.
func TestStatsEndpoint(t *testing.T) {
	regTestExp(t, "svc-stats", nil)
	d, err := store.Open(t.TempDir(), store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	rc := exp.NewResultCache(d)
	_, ts := newTestServer(t, 0, Options{MaxQueue: 7, Cache: rc})
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"experiment": "svc-stats", "config": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	_, body := get(t, ts, "/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats: %v\n%s", err, body)
	}
	if st.Schema != StatsSchema || st.QueueCapacity != 7 || st.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("stats header wrong: %+v", st)
	}
	if st.Submitted != 1 || st.Completed != 1 || st.Jobs[StateDone] != 1 {
		t.Errorf("stats counters wrong: %+v", st)
	}
	if st.Store == nil || st.StoreLine != st.Store.Line() {
		t.Errorf("store_line %q is not the shared formatter of %+v", st.StoreLine, st.Store)
	}
}

// TestTraceFileGate pins the tracefile policy: a config naming a
// server-local trace file is rejected unless the operator started the
// server with AllowTraceFiles — and the rejection happens before the
// server touches (hashes) the named file.  With the gate open, a file
// the server cannot read, or one that is not a din trace, is the
// client's error, not the server's, and is answered before anything is
// queued.
func TestTraceFileGate(t *testing.T) {
	regTestExp(t, "svc-tracegate", nil)
	body := `{"experiment": "svc-tracegate", "config": {"tracefile": "/etc/passwd"}}`
	// writeTrace writes a trace file and returns the submission naming it.
	writeTrace := func(t *testing.T, name, content string) string {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return `{"experiment": "svc-tracegate", "config": {"tracefile": "` + path + `"}}`
	}

	t.Run("default deny", func(t *testing.T) {
		_, ts := newTestServer(t, 1, Options{})
		resp, b := post(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d, want 400: %s", resp.StatusCode, b)
		}
		var eb ErrorBody
		if err := json.Unmarshal(b, &eb); err != nil {
			t.Fatalf("not an ErrorBody: %v\n%s", err, b)
		}
		if !strings.Contains(eb.Error, "tracefile is not accepted") {
			t.Errorf("error %q does not explain the tracefile policy", eb.Error)
		}
	})

	t.Run("opt-in allows", func(t *testing.T) {
		_, ts := newTestServer(t, 1, Options{AllowTraceFiles: true})
		// With the gate open a din trace proceeds to job admission.
		resp, b := post(t, ts, writeTrace(t, "t.din", "0 1000\n1 2020\n"))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("HTTP %d, want 202 with AllowTraceFiles: %s", resp.StatusCode, b)
		}
	})

	t.Run("unrecognized file", func(t *testing.T) {
		_, ts := newTestServer(t, 1, Options{AllowTraceFiles: true})
		// The retired native binary format: its magic and one record.
		native := "IPOLYTR1" + strings.Repeat("\x00", 20)
		resp, b := post(t, ts, writeTrace(t, "t.trace", native))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d, want 400: %s", resp.StatusCode, b)
		}
		var eb ErrorBody
		if err := json.Unmarshal(b, &eb); err != nil {
			t.Fatalf("not an ErrorBody: %v\n%s", err, b)
		}
		if !strings.HasPrefix(eb.Error, "invalid config: ") || !strings.Contains(eb.Error, "unrecognized trace format") {
			t.Errorf("error %q does not blame the config's trace format", eb.Error)
		}
		var st StatsResponse
		if _, body := get(t, ts, "/v1/stats"); json.Unmarshal(body, &st) != nil || st.Submitted != 0 {
			t.Errorf("the rejected config was queued: %s", body)
		}
	})

	t.Run("unreadable file", func(t *testing.T) {
		_, ts := newTestServer(t, 1, Options{AllowTraceFiles: true})
		missing := filepath.Join(t.TempDir(), "missing.din")
		resp, b := post(t, ts, `{"experiment": "svc-tracegate", "config": {"tracefile": "`+missing+`"}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d, want 400: %s", resp.StatusCode, b)
		}
		var eb ErrorBody
		if err := json.Unmarshal(b, &eb); err != nil {
			t.Fatalf("not an ErrorBody: %v\n%s", err, b)
		}
		if !strings.HasPrefix(eb.Error, "invalid config: ") || !strings.Contains(eb.Error, "no such file or directory") {
			t.Errorf("error %q does not blame the config's missing file", eb.Error)
		}
		if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
			t.Errorf("healthz after the rejected job: HTTP %d, want 200", resp.StatusCode)
		}
	})
}
