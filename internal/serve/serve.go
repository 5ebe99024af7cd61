// Package serve turns the experiment registry into a long-running,
// multi-tenant HTTP simulation service: the typed configs, parameter
// specs and schema-tagged Reports that internal/exp already defines
// become the wire contract of a small REST API.
//
// Endpoints:
//
//	POST   /v1/jobs             submit {"experiment": name, "config": {...}}
//	GET    /v1/jobs/{id}        job status (state, queue position, progress)
//	GET    /v1/jobs/{id}/result the repro/report/v1 envelope
//	DELETE /v1/jobs/{id}        cancel (the ctx threaded through RunXxxCtx)
//	GET    /v1/experiments      registry listing, byte-identical to `repro list -json`
//	GET    /v1/stats            queue depth, cache and store counters
//	GET    /healthz             liveness (503 while draining)
//
// Behind the handlers sits a bounded job queue drained by a fixed
// worker pool.  Admission control is explicit: a full queue rejects
// with 429 + Retry-After instead of building an invisible backlog.
// Before anything is enqueued the result cache is probed — a hit
// returns the cached envelope synchronously, so repeated sweeps are
// served at memory speed.  Identical in-flight submissions (same
// exp.ReportKey, i.e. same experiment + canonical config) coalesce
// onto one job, so a stampede of equal requests costs one simulation.
// Each job runs under its own context, cancelled by DELETE, by the
// drain deadline at shutdown, or — for jobs submitted with ?wait=1 —
// when every waiting client has disconnected.
package serve

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/exp"
)

// DefaultMaxQueue bounds jobs admitted but not yet picked up by a
// worker when Options.MaxQueue is 0.
const DefaultMaxQueue = 64

const (
	// maxBody caps a request body at 1 MiB (413 beyond it) — orders of
	// magnitude above any real config, small enough to shrug off junk.
	maxBody = 1 << 20
	// retain is how many finished jobs stay queryable for status and
	// result queries before the oldest are forgotten.
	retain = 1024
)

// Options configures a Server.  The zero value is usable: no cache
// fast path, DefaultMaxQueue.  The worker pool is not an option: it runs
// GOMAXPROCS concurrent simulation jobs, as the runner's pool does, and
// intra-job parallelism (shards) divides the machine by
// runner.Outstanding, so the two layers share one core budget.
type Options struct {
	// Cache, when non-nil, is probed before any submission is enqueued
	// (a hit answers synchronously with the cached envelope) and is the
	// cache jobs run against, so fresh results are persisted for the
	// next identical request.
	Cache *exp.ResultCache
	// MaxQueue bounds the number of admitted-but-not-running jobs; a
	// full queue rejects submissions with 429.  0 means DefaultMaxQueue.
	MaxQueue int
	// AllowTraceFiles permits configs naming a tracefile.  Off by
	// default: a trace-file path in a request is a server-local file
	// read chosen by a remote client — a multi-tenant deployment must
	// opt in deliberately.
	AllowTraceFiles bool
}

// testWorkers, when positive, replaces the derived worker count.  Only
// tests set it, to pin queueing behaviour at a fixed pool size.
var testWorkers int

// Server is the simulation service: a job store, a bounded queue, a
// worker pool and the http.Handler in front of them.  Create one with
// New, mount Handler on an http.Server, and Shutdown to drain.
type Server struct {
	opts    Options
	workers int // concurrent simulation jobs: GOMAXPROCS

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *job
	jobs  *jobStore
	mux   *http.ServeMux
	wg    sync.WaitGroup

	mu       sync.Mutex // guards closed and the enqueue-vs-close race
	closed   bool
	draining atomic.Bool

	// Cumulative service counters (see StatsResponse).
	submitted  atomic.Uint64
	coalesced  atomic.Uint64
	fastpath   atomic.Uint64
	rejected   atomic.Uint64
	completed  atomic.Uint64
	simFailed  atomic.Uint64
	simDropped atomic.Uint64 // cancelled before or during execution
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = DefaultMaxQueue
	}
	workers := testWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		workers:    workers,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, opts.MaxQueue),
		jobs:       newJobStore(),
		mux:        http.NewServeMux(),
	}
	s.routes()
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the root handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// worker drains the queue until it is closed by Shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if !j.begin() {
			// Cancelled while queued; the cancel path already finalized it.
			continue
		}
		rep, err := exp.RunWith(j.ctx, s.opts.Cache, j.e, j.cfg)
		j.finish(rep, err, s.countOutcome)
		s.jobs.finalize(j)
	}
}

// countOutcome tallies the terminal state of an executed job.
func (s *Server) countOutcome(st State) {
	switch st {
	case StateDone:
		s.completed.Add(1)
	case StateCanceled:
		s.simDropped.Add(1)
	default:
		s.simFailed.Add(1)
	}
}

// admitResult classifies one submission attempt.
type admitResult int

const (
	admitNew       admitResult = iota // a fresh job was enqueued
	admitCoalesced                    // attached to an identical in-flight job
	admitFull                         // queue full: 429
	admitClosed                       // draining/shut down: 503
)

// admit coalesces onto an identical active job or creates and enqueues
// a new one.  Registration and enqueueing happen under the job store's
// lock so a queue-full rejection can retract the registration before
// any other submission could have coalesced onto it.
func (s *Server) admit(e exp.Experiment, cfg exp.Config, key string, wait bool) (*job, admitResult) {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	if j := s.jobs.coalesceTargetLocked(key); j != nil {
		j.attach(wait)
		s.coalesced.Add(1)
		return j, admitCoalesced
	}
	if s.draining.Load() {
		return nil, admitClosed
	}
	j := s.jobs.createLocked(s.baseCtx, e, cfg, key, wait)
	switch ok, closed := s.enqueue(j); {
	case closed:
		s.jobs.removeLocked(j)
		return nil, admitClosed
	case !ok:
		s.jobs.removeLocked(j)
		s.rejected.Add(1)
		return nil, admitFull
	}
	s.submitted.Add(1)
	return j, admitNew
}

// enqueue performs the bounded, non-blocking queue send.
func (s *Server) enqueue(j *job) (ok, closed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, true
	}
	select {
	case s.queue <- j:
		return true, false
	default:
		return false, false
	}
}

// Shutdown drains the service: new submissions are rejected with 503
// immediately, queued and running jobs are given until ctx's deadline
// to finish, and past the deadline every in-flight job context is
// cancelled (the jobs end promptly as cancelled, nothing is torn —
// the artifact store's writes are atomic).  It returns ctx.Err() if the
// deadline forced cancellation, nil if the drain completed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// cancelJob cancels j (DELETE or waiter-disconnect): a queued job dies
// immediately, a running one keeps going until its context is observed.
func (s *Server) cancelJob(j *job) State {
	st, terminalNow := j.requestCancel()
	if terminalNow {
		s.simDropped.Add(1)
		s.jobs.finalize(j)
	}
	return st
}

// isCtxErr reports whether err is (or wraps) a context cancellation.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
