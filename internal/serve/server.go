package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"piileak/internal/obs"
	"piileak/internal/resilience"
)

// Config shapes a Server. Zero fields take the documented defaults.
type Config struct {
	// Dir is the state directory: the job WAL plus one working
	// directory per job (checkpoint, results).
	Dir string
	// Slots is the number of concurrent study slots (default 2). Each
	// running job owns one slot; everything else waits in the queue.
	Slots int
	// QueueDepth bounds the admitted-but-not-running backlog (default
	// 16). Submissions beyond it are refused with 429 + Retry-After —
	// the server sheds load instead of growing an unbounded queue.
	QueueDepth int
	// JobTimeout is the per-job watchdog budget on the server's clock
	// (0 = none). A job over budget is cancelled and marked failed; its
	// checkpoint stays valid for manual resubmission diagnosis.
	JobTimeout time.Duration
	// RetryAfter is the Retry-After hint served before any job has
	// completed (default 5s); after that the hint tracks an EWMA of
	// observed job durations scaled by the backlog.
	RetryAfter time.Duration
	// Clock injects time for the watchdog and the Retry-After estimate
	// (default the wall clock).
	Clock resilience.Clock
}

// ErrDraining refuses submissions while the server drains.
var ErrDraining = errors.New("serve: draining: not admitting jobs")

// SaturatedError refuses a submission because the queue is full; the
// embedded hint becomes the 429 response's Retry-After.
type SaturatedError struct {
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("serve: queue full, retry after %v", e.RetryAfter)
}

// running is the in-memory handle on an executing job: the cancel that
// stops it between sites, plus the flags that disambiguate why the run
// context died (user cancel vs watchdog vs drain).
type running struct {
	cancel     context.CancelFunc
	userCancel bool
	timedOut   bool
}

// Server is the study service: a durable job store, a bounded worker
// pool, and the admission/drain state machine around them. Create with
// New, start workers with Start, wire the HTTP surface with Handler.
type Server struct {
	cfg   Config
	store *Store
	clock resilience.Clock
	// run is the server's own telemetry (admission and lifecycle
	// counters); per-job observers are separate and export per job.
	run *obs.Run

	stopWorkers context.CancelFunc
	wg          sync.WaitGroup

	mu       sync.Mutex
	queue    []string // queued job IDs, FIFO
	wake     chan struct{}
	draining bool
	running  map[string]*running
	events   map[string]*EventLog
	ewma     resilience.EWMA
	started  bool
}

// New opens the job store under cfg.Dir and builds the server. Crash
// recovery happens here: the WAL replays, interrupted jobs re-enter the
// queue, and the recovery counters land in the server's metrics.
func New(cfg Config) (*Server, error) {
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 5 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = resilience.RealClock{}
	}
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		clock:   cfg.Clock,
		run:     obs.NewRun(),
		wake:    make(chan struct{}, cfg.Slots),
		running: map[string]*running{},
		events:  map[string]*EventLog{},
	}
	s.run.Count(obs.MetricServeRecovered, int64(store.Recovered()))
	s.run.Count(obs.MetricServeTorn, int64(store.TornRecords()))
	return s, nil
}

// Start re-enqueues every queued job from the recovered store (they
// were admitted before the restart, so the queue-depth cap does not
// apply) and spawns the worker pool under ctx. Cancelling ctx stops the
// workers; Drain is the graceful path.
func (s *Server) Start(ctx context.Context) {
	wctx, cancel := context.WithCancel(ctx)
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		cancel()
		return
	}
	s.started = true
	s.stopWorkers = cancel
	for _, j := range s.store.Queued() {
		s.queue = append(s.queue, j.ID)
	}
	s.mu.Unlock()
	for i := 0; i < s.cfg.Slots; i++ {
		s.wg.Add(1)
		go s.worker(wctx)
	}
}

// Submit admits one job: validated spec, durable WAL line, queue slot.
// It fails with ErrDraining during drain and *SaturatedError when the
// backlog is full.
func (s *Server) Submit(spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		s.run.CountKind(obs.MetricServeRejected, "invalid", 1)
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.run.CountKind(obs.MetricServeRejected, "draining", 1)
		return nil, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		ra := s.retryAfterLocked()
		s.mu.Unlock()
		s.run.CountKind(obs.MetricServeRejected, "saturated", 1)
		return nil, &SaturatedError{RetryAfter: ra}
	}
	job, err := s.store.Submit(spec)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.queue = append(s.queue, job.ID)
	s.mu.Unlock()
	s.run.Count(obs.MetricServeSubmitted, 1)
	s.wakeOne()
	return job, nil
}

// retryAfterLocked estimates when a queue slot frees: the job-duration
// EWMA scaled by how deep the backlog is relative to the slot count,
// floored at one second. Before any completion it falls back to the
// configured hint.
func (s *Server) retryAfterLocked() time.Duration {
	est, ok := s.ewma.Value()
	if !ok || est <= 0 {
		return s.cfg.RetryAfter
	}
	wait := time.Duration(float64(est) * float64(len(s.queue)+1) / float64(s.cfg.Slots))
	if wait < time.Second {
		wait = time.Second
	}
	return wait
}

// Cancel ends a job. Queued jobs leave the queue and go terminal
// directly; running jobs are cancelled between sites and the worker
// records the terminal state. Cancelling a terminal job is an error.
func (s *Server) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	job, ok := s.store.Get(id)
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: no job %s", id)
	}
	if job.State.Terminal() {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: job %s is already %s", id, job.State)
	}
	if r, isRunning := s.running[id]; isRunning {
		r.userCancel = true
		r.cancel()
		s.mu.Unlock()
		// The worker observes the cancel between sites and marks the
		// terminal state; report the job as-is (still running here).
		return job, nil
	}
	for i, qid := range s.queue {
		if qid == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	job, err := s.store.MarkCancelled(id)
	if err != nil {
		return nil, err
	}
	s.run.CountKind(obs.MetricServeFinished, string(StateCancelled), 1)
	lg := s.log(id)
	lg.Publish("done", job.View())
	lg.Close()
	return job, nil
}

// Drain is the graceful-shutdown entry: stop admitting, cancel every
// running job (each checkpoints and re-queues durably), and stop the
// workers. After Wait returns, every non-terminal job is back in the
// WAL as queued with a valid checkpoint — a restarted server picks all
// of it up.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	var cancels []context.CancelFunc
	for _, r := range s.running {
		cancels = append(cancels, r.cancel) //lint:allow maporder cancellation is commutative; order cannot matter
	}
	stop := s.stopWorkers
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	if stop != nil {
		stop()
	}
}

// Wait blocks until every worker has exited (after Drain or ctx
// cancellation).
func (s *Server) Wait() { s.wg.Wait() }

// Close releases the job store. Call after Wait.
func (s *Server) Close() error { return s.store.Close() }

// Store exposes the job table to handlers and tests.
func (s *Server) Store() *Store { return s.store }

// Draining reports whether drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// log returns (creating on first use) a job's event log.
func (s *Server) log(id string) *EventLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	lg, ok := s.events[id]
	if !ok {
		lg = NewEventLog()
		s.events[id] = lg
	}
	return lg
}

// wakeOne nudges an idle worker; a full wake buffer means every worker
// already has a pending wakeup.
func (s *Server) wakeOne() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// worker pulls queued jobs until the pool context ends. Workers
// re-check the queue after every job, so dropped wake tokens never
// strand work.
func (s *Server) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		id, ok := s.next(ctx)
		if !ok {
			return
		}
		s.execute(ctx, id)
	}
}

// next blocks until a job is available or the pool stops.
func (s *Server) next(ctx context.Context) (string, bool) {
	for {
		s.mu.Lock()
		if !s.draining && len(s.queue) > 0 {
			id := s.queue[0]
			s.queue = s.queue[1:]
			s.mu.Unlock()
			return id, true
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return "", false
		case <-s.wake:
		}
	}
}

// execute owns one job attempt end to end: durable running mark,
// watchdog, the study itself, and the terminal (or requeue) transition.
func (s *Server) execute(ctx context.Context, id string) {
	job, err := s.store.MarkRunning(id)
	if err != nil {
		s.logf("job %s: %v", id, err)
		return
	}
	lg := s.log(id)
	lg.Publish("state", job.View())

	start := s.clock.Now()
	jctx, cancel := context.WithCancel(ctx)
	r := &running{cancel: cancel}
	s.mu.Lock()
	s.running[id] = r
	s.mu.Unlock()
	if budget := s.cfg.JobTimeout; budget > 0 {
		// The watchdog dies with jctx: execute always cancels on the way
		// out, so the goroutine cannot outlive the attempt.
		go func() {
			if s.clock.SleepContext(jctx, budget) == nil {
				s.mu.Lock()
				r.timedOut = true
				s.mu.Unlock()
				s.run.Count(obs.MetricServeWatchdog, 1)
				cancel()
			}
		}()
	}

	runErr := s.runJob(jctx, job, lg)
	cancel()
	s.mu.Lock()
	delete(s.running, id)
	userCancel, timedOut := r.userCancel, r.timedOut
	s.mu.Unlock()

	switch {
	case runErr == nil:
		s.ewma.Record(s.clock.Now().Sub(start))
		job, err = s.store.MarkDone(id)
		s.run.CountKind(obs.MetricServeFinished, string(StateDone), 1)
	case errors.Is(runErr, context.Canceled) && userCancel:
		job, err = s.store.MarkCancelled(id)
		s.run.CountKind(obs.MetricServeFinished, string(StateCancelled), 1)
	case errors.Is(runErr, context.Canceled) && timedOut:
		job, err = s.store.MarkFailed(id, fmt.Sprintf("watchdog: job exceeded the %v budget", s.cfg.JobTimeout))
		s.run.CountKind(obs.MetricServeFinished, string(StateFailed), 1)
	case errors.Is(runErr, context.Canceled):
		// Drain (or pool shutdown): the checkpoint is a valid prefix, so
		// the job goes durably back to queued and the event stream stays
		// open for the resumed attempt.
		job, err = s.store.Requeue(id)
		s.run.Count(obs.MetricServeRequeued, 1)
		if err != nil {
			s.logf("job %s: requeue: %v", id, err)
			return
		}
		lg.Publish("state", job.View())
		return
	default:
		job, err = s.store.MarkFailed(id, runErr.Error())
		s.run.CountKind(obs.MetricServeFinished, string(StateFailed), 1)
	}
	if err != nil {
		s.logf("job %s: record terminal state: %v", id, err)
		return
	}
	lg.Publish("done", job.View())
	lg.Close()
}

// logf reports server-side conditions on stderr. Messages carry job IDs
// and infrastructure errors, never persona PII.
func (s *Server) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "piiserve: "+format+"\n", args...)
}
