package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/trace"
)

// routes mounts the API on s.mux.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
}

// writeJSON emits v through the shared canonical encoder, so a result
// envelope served here is byte-identical to `repro <name> -json`.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// An encode error here means the client hung up mid-response;
	// there is nobody left to tell.
	_ = exp.WriteJSON(w, v)
}

// writeError emits the uniform JSON error body.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// wantWait interprets the ?wait query parameter.
func wantWait(r *http.Request) bool {
	switch strings.ToLower(r.URL.Query().Get("wait")) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// handleSubmit is POST /v1/jobs: validate against the registry's
// parameter spec, serve a cache hit synchronously, coalesce onto an
// identical in-flight job, or admit into the bounded queue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting submissions")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBody)
		} else {
			writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		}
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req submitRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid submission body: %v", err)
		return
	}
	if req.Experiment == "" {
		writeError(w, http.StatusBadRequest, "invalid submission body: missing experiment name")
		return
	}
	e, ok := exp.Get(req.Experiment)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown experiment %q (see /v1/experiments)", req.Experiment)
		return
	}
	cfg, err := exp.DecodeConfig(e, req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid config: %v", err)
		return
	}
	if err := cfg.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid config: %v", err)
		return
	}
	// A tracefile points the server at one of its own local files, so it
	// is rejected before any use — including the file hashing ReportKey
	// would do — unless the operator opted in.
	if cfg.BaseConfig().TraceFile != "" && !s.opts.AllowTraceFiles {
		writeError(w, http.StatusBadRequest, "invalid config: tracefile is not accepted by this server (server-local file access; start with -allow-trace-files to enable)")
		return
	}
	// Deriving the key hashes the trace file a config names, so a file
	// the server cannot read fails here, and the config is at fault.
	key, err := exp.ReportKey(e, cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid config: %v", err)
		return
	}

	// Cache fast path: an already-computed identical result is returned
	// synchronously — no job, no queue slot, no simulation.
	if c := s.opts.Cache; c != nil {
		if rep, ok := c.Cached(e, cfg); ok {
			s.fastpath.Add(1)
			w.Header().Set("X-Repro-Cache", "hit")
			w.Header().Set("X-Repro-Key", key)
			writeJSON(w, http.StatusOK, rep)
			return
		}
	}
	// A job would open the trace file, so a file that is not din is the
	// config's fault too, answered before anything is queued.  Only a
	// miss pays for the check: a hit never reads the file.
	if tf := cfg.BaseConfig().TraceFile; tf != "" {
		f, err := trace.OpenFile(tf)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid config: %v", err)
			return
		}
		f.Close()
	}

	wait := wantWait(r)
	j, res := s.admit(e, cfg, key, wait)
	switch res {
	case admitClosed:
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting submissions")
		return
	case admitFull:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeError(w, http.StatusTooManyRequests, "job queue full (%d queued); retry later", s.opts.MaxQueue)
		return
	}
	if !wait {
		writeJSON(w, http.StatusAccepted, s.statusOf(j))
		return
	}
	j.addWaiter()
	defer func() {
		if j.dropWaiter() {
			s.cancelJob(j)
		}
	}()
	select {
	case <-j.done:
		s.writeOutcome(w, j)
	case <-r.Context().Done():
		// Client disconnected; the deferred dropWaiter cancels the job
		// if nobody else is waiting for (or polling) it.
	}
}

// retryAfter estimates seconds until a queue slot frees up.
func (s *Server) retryAfter() int {
	secs := len(s.queue)/s.workers + 1
	if secs > 60 {
		secs = 60
	}
	return secs
}

// statusOf snapshots a job into its wire form.
func (s *Server) statusOf(j *job) JobStatus {
	j.mu.Lock()
	st := JobStatus{
		Schema:      JobSchema,
		ID:          j.id,
		Experiment:  j.e.Name,
		Key:         j.key,
		State:       j.state,
		Coalesced:   j.extra,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
		if j.state == StateRunning {
			st.RunningMS = time.Since(j.started).Milliseconds()
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		st.QueuePosition = s.jobs.position(j)
	}
	return st
}

// writeOutcome renders a terminal job: the report envelope for done, an
// error body for failed, 410 for canceled.
func (s *Server) writeOutcome(w http.ResponseWriter, j *job) {
	j.mu.Lock()
	st, rep, err := j.state, j.report, j.err
	j.mu.Unlock()
	switch st {
	case StateDone:
		w.Header().Set("X-Repro-Key", j.key)
		writeJSON(w, http.StatusOK, rep)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job %s failed: %v", j.id, err)
	case StateCanceled:
		writeError(w, http.StatusGone, "job %s canceled", j.id)
	}
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

// handleResult is GET /v1/jobs/{id}/result: the envelope once done, a
// 202 status document while the job is still in flight (or, with
// ?wait=1, a block until completion).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if wantWait(r) {
		j.addWaiter()
		defer func() {
			if j.dropWaiter() {
				s.cancelJob(j)
			}
		}()
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
	j.mu.Lock()
	st := j.state
	j.mu.Unlock()
	if !terminal(st) {
		writeJSON(w, http.StatusAccepted, s.statusOf(j))
		return
	}
	s.writeOutcome(w, j)
}

// handleCancel is DELETE /v1/jobs/{id}: cancellation is idempotent and
// race-safe — a finished job stays finished, a queued one dies on the
// spot, a running one ends as soon as its context is observed.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

// handleExperiments is GET /v1/experiments: the registry listing
// through the same encoder as `repro list -json`, byte for byte.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = exp.WriteJSON(w, exp.Specs())
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Schema:        StatsSchema,
		Draining:      s.draining.Load(),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.opts.MaxQueue,
		Workers:       s.workers,
		Submitted:     s.submitted.Load(),
		Coalesced:     s.coalesced.Load(),
		FastPath:      s.fastpath.Load(),
		Rejected:      s.rejected.Load(),
		Completed:     s.completed.Load(),
		Failed:        s.simFailed.Load(),
		CanceledSim:   s.simDropped.Load(),
		Jobs:          s.jobs.counts(),
	}
	if c := s.opts.Cache; c != nil {
		cs := c.Stats()
		ds := c.StoreStats()
		resp.Cache = &cs
		resp.Store = &ds
		resp.StoreLine = ds.Line()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth is GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthBody{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, HealthBody{Status: "ok"})
}
