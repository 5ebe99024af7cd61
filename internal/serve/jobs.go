package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/exp"
)

// job is one admitted simulation: the experiment and decoded config it
// will run, its content key (exp.ReportKey — also the coalescing key),
// its private cancellable context, and the lifecycle state machine
// queued → running → done|failed|canceled (queued may also jump
// straight to canceled).
type job struct {
	id  string
	seq int64
	e   exp.Experiment
	cfg exp.Config
	key string

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed exactly once, on reaching a terminal state

	mu        sync.Mutex
	state     State
	report    *exp.Report
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
	// extra counts submissions coalesced onto this job beyond the first.
	extra int
	// waiters counts clients currently blocked on this job (?wait=1).
	waiters int
	// disconnectCancels is set when every submission so far asked to
	// wait: if all waiters disconnect, nobody can ever fetch the result,
	// so the job is cancelled.  One detached (poll-style) submission
	// clears it permanently.
	disconnectCancels bool
}

// begin moves a dequeued job to running; false means it was cancelled
// while queued and must be skipped.
func (j *job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish records the outcome of an executed job and passes its state
// to count before releasing the job's waiters, so a client that has its
// result also finds the job in the server's counters.  A context error
// — either reported by the run or pending on the job's context — reads
// as cancellation, not failure.
func (j *job) finish(rep *exp.Report, err error, count func(State)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		count(j.state)
		return
	}
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.report = rep
	case isCtxErr(err) || j.ctx.Err() != nil:
		j.state = StateCanceled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	count(j.state)
	close(j.done)
}

// requestCancel implements DELETE and waiter-disconnect: a queued job
// becomes canceled on the spot (terminalNow true — the caller must
// finalize it, since no worker will); a running job keeps its state
// until the worker observes the cancelled context.  Terminal states are
// untouched, making DELETE-vs-completion races safe in both orders.
func (j *job) requestCancel() (st State, terminalNow bool) {
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCanceled
		j.finished = time.Now()
		j.err = context.Canceled
		close(j.done)
		terminalNow = true
	}
	st = j.state
	j.mu.Unlock()
	j.cancel()
	return st, terminalNow
}

// attach records one more identical submission coalescing onto j.
func (j *job) attach(wait bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.extra++
	if !wait {
		j.disconnectCancels = false
	}
}

// addWaiter registers a client blocking on j's completion.
func (j *job) addWaiter() {
	j.mu.Lock()
	j.waiters++
	j.mu.Unlock()
}

// dropWaiter unregisters a blocked client and reports whether the job
// should now be cancelled: the last waiter left while the job was still
// live, and no detached submission ever claimed the result.
func (j *job) dropWaiter() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.waiters--
	return j.waiters == 0 && j.disconnectCancels &&
		(j.state == StateQueued || j.state == StateRunning)
}

// jobStore indexes every live job by id, the active (queued/running)
// ones by content key for coalescing, and retains up to retain of the
// most recently finished jobs for status/result queries.
type jobStore struct {
	mu        sync.Mutex
	seq       int64
	byID      map[string]*job
	active    map[string]*job
	doneOrder []string
}

func newJobStore() *jobStore {
	return &jobStore{
		byID:   make(map[string]*job),
		active: make(map[string]*job),
	}
}

// createLocked registers a fresh queued job.  Callers hold s.mu.
func (s *jobStore) createLocked(base context.Context, e exp.Experiment, cfg exp.Config, key string, wait bool) *job {
	s.seq++
	ctx, cancel := context.WithCancel(base)
	j := &job{
		id:                fmt.Sprintf("j%08d", s.seq),
		seq:               s.seq,
		e:                 e,
		cfg:               cfg,
		key:               key,
		ctx:               ctx,
		cancel:            cancel,
		done:              make(chan struct{}),
		state:             StateQueued,
		submitted:         time.Now(),
		disconnectCancels: wait,
	}
	s.byID[j.id] = j
	s.active[key] = j
	return j
}

// removeLocked retracts a job that was never admitted (queue full).
// Callers hold s.mu.
func (s *jobStore) removeLocked(j *job) {
	delete(s.byID, j.id)
	if s.active[j.key] == j {
		delete(s.active, j.key)
	}
	j.cancel()
}

// finalize moves a job that reached a terminal state out of the active
// index and into the bounded done window, evicting the oldest finished
// jobs beyond the retention cap.
func (s *jobStore) finalize(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active[j.key] == j {
		delete(s.active, j.key)
	}
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > retain {
		delete(s.byID, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// get returns the job with the given id, or nil.
func (s *jobStore) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// coalesceTargetLocked returns the live active job for key, skipping
// one whose context is already cancelled (it is on its way out).
// Callers hold s.mu.
func (s *jobStore) coalesceTargetLocked(key string) *job {
	j := s.active[key]
	if j == nil || j.ctx.Err() != nil {
		return nil
	}
	return j
}

// position returns j's 1-based place among still-queued jobs, 0 if j is
// no longer queued.
func (s *jobStore) position(j *job) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	queued := j.state == StateQueued
	seq := j.seq
	j.mu.Unlock()
	if !queued {
		return 0
	}
	pos := 1
	for _, other := range s.active {
		if other == j {
			continue
		}
		other.mu.Lock()
		if other.state == StateQueued && other.seq < seq {
			pos++
		}
		other.mu.Unlock()
	}
	return pos
}

// counts tallies the states of every retained job.
func (s *jobStore) counts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int)
	for _, j := range s.byID {
		j.mu.Lock()
		out[j.state]++
		j.mu.Unlock()
	}
	return out
}
