package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"piileak/internal/crawler"
)

// The job store is an append-only JSONL write-ahead log with the same
// crash posture as the crawl checkpoint format (internal/crawler): one
// header line pinning the store version, then one self-contained event
// line per durable transition, each written whole and fsynced before
// the transition is observable. A kill -9 loses at most the line in
// flight; on reopen the torn tail is dropped and counted, the surviving
// prefix is compacted (one line per job carrying its folded state) and
// rewritten atomically via temp + rename, and interrupted jobs are
// recovered: running means "a worker owned this when the process died",
// so the job re-enters the queue and its next attempt resumes from the
// per-job checkpoint.

// storeVersion pins the WAL layout.
const storeVersion = 1

// storeHeader is the WAL's first line.
type storeHeader struct {
	Version int `json:"version"`
}

// walEvent is one durable transition. Op "job" carries a full job
// snapshot (submissions and compacted lines); op "state" is an
// incremental transition for an existing job.
type walEvent struct {
	Op       string `json:"op"` // "job" or "state"
	ID       string `json:"id"`
	Seq      int    `json:"seq,omitempty"`
	Spec     *Spec  `json:"spec,omitempty"`
	State    State  `json:"state,omitempty"`
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Resumes  int    `json:"resumes,omitempty"`
}

// Store is the durable job table. All durable mutations go through it
// so the WAL line is on disk before the in-memory transition is
// visible to any reader.
type Store struct {
	mu        sync.Mutex
	dir       string
	path      string
	f         *os.File
	jobs      map[string]*Job
	order     []string // job IDs in submit (Seq) order
	nextSeq   int
	torn      int
	recovered int
	closed    bool
}

// StorePath is the WAL's location under a state directory.
func StorePath(dir string) string { return filepath.Join(dir, "jobs.jsonl") }

// OpenStore opens (creating if needed) the job store under dir. An
// existing WAL is replayed — torn trailing lines dropped and counted,
// running jobs recovered to queued with their resume counter bumped —
// then compacted and rewritten atomically before the append handle
// opens.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: store %s: %w", dir, err)
	}
	s := &Store{
		dir:     dir,
		path:    StorePath(dir),
		jobs:    map[string]*Job{},
		nextSeq: 1,
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	if err := s.compact(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: store %s: %w", s.path, err)
	}
	s.f = f
	return s, nil
}

// load replays an existing WAL into the job table. A missing or blank
// file is an empty store; any other file must open with the header
// line. The first undecodable line ends the readable prefix and
// everything after it counts as torn.
func (s *Store) load() error {
	data, err := os.ReadFile(s.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: store %s: %w", s.path, err)
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return nil // empty file: fresh store
	}
	lines := bytes.Split(data, []byte("\n"))
	var hdr storeHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return fmt.Errorf("serve: store %s: malformed header: %w", s.path, err)
	}
	if hdr.Version != storeVersion {
		return fmt.Errorf("serve: store %s: version %d, want %d", s.path, hdr.Version, storeVersion)
	}
	rest := lines[1:]
	for li, line := range rest {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev walEvent
		if err := json.Unmarshal(line, &ev); err != nil || !s.apply(&ev) {
			// Crash-torn tail: the prefix is good, everything from here
			// is dropped and counted, like the checkpoint loader.
			for _, dropped := range rest[li:] {
				if len(bytes.TrimSpace(dropped)) > 0 {
					s.torn++
				}
			}
			break
		}
	}
	// Recovery: a job recorded running was owned by a worker when the
	// process died. Its checkpoint (if any) is a valid prefix, so it
	// re-enters the queue and the next attempt resumes.
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State == StateRunning {
			j.State = StateQueued
			j.Resumes++
			s.recovered++
		}
	}
	return nil
}

// apply folds one replayed event into the table; false means the event
// is unusable (the torn-tail signal).
func (s *Store) apply(ev *walEvent) bool {
	switch ev.Op {
	case "job":
		if ev.ID == "" || ev.Spec == nil || ev.Seq <= 0 {
			return false
		}
		j, exists := s.jobs[ev.ID]
		if !exists {
			j = &Job{ID: ev.ID, Seq: ev.Seq, Spec: *ev.Spec}
			s.jobs[ev.ID] = j
			s.order = append(s.order, ev.ID)
		}
		j.State = ev.State
		if j.State == "" {
			j.State = StateQueued
		}
		j.Error = ev.Error
		j.Attempts = ev.Attempts
		j.Resumes = ev.Resumes
		if ev.Seq >= s.nextSeq {
			s.nextSeq = ev.Seq + 1
		}
		return true
	case "state":
		j, ok := s.jobs[ev.ID]
		if !ok || ev.State == "" {
			return false
		}
		j.State = ev.State
		j.Error = ev.Error
		j.Attempts = ev.Attempts
		j.Resumes = ev.Resumes
		return true
	default:
		return false
	}
}

// compact rewrites the WAL as header + one folded "job" line per job,
// atomically (crawler.WriteFileAtomic), which also drops any torn tail.
func (s *Store) compact() error {
	err := crawler.WriteFileAtomic(s.path, func(f io.Writer) error {
		w := bufio.NewWriter(f)
		enc := json.NewEncoder(w)
		if err := enc.Encode(storeHeader{Version: storeVersion}); err != nil {
			return err
		}
		for _, id := range s.order {
			j := s.jobs[id]
			if err := enc.Encode(walEvent{
				Op: "job", ID: j.ID, Seq: j.Seq, Spec: &j.Spec,
				State: j.State, Error: j.Error, Attempts: j.Attempts, Resumes: j.Resumes,
			}); err != nil {
				return err
			}
		}
		return w.Flush()
	})
	if err != nil {
		return fmt.Errorf("serve: store %s: %w", s.path, err)
	}
	return nil
}

// append writes one event line whole and fsyncs it. Must be called with
// the lock held; the in-memory transition must happen only after this
// returns nil.
func (s *Store) append(ev walEvent) error {
	if s.closed {
		return fmt.Errorf("serve: store %s is closed", s.path)
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("serve: store %s: %w", s.path, err)
	}
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("serve: store %s: %w", s.path, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("serve: store %s: %w", s.path, err)
	}
	return nil
}

// Submit admits one validated spec as a new queued job.
func (s *Store) Submit(spec Spec) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.nextSeq
	j := &Job{
		ID:    fmt.Sprintf("j%d", seq),
		Seq:   seq,
		Spec:  spec,
		State: StateQueued,
	}
	if err := s.append(walEvent{Op: "job", ID: j.ID, Seq: j.Seq, Spec: &j.Spec, State: j.State}); err != nil {
		return nil, err
	}
	s.nextSeq = seq + 1
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	cp := *j
	return &cp, nil
}

// transition records one durable state change and returns a snapshot.
func (s *Store) transition(id string, mutate func(*Job)) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: no job %s", id)
	}
	next := *j // stage the mutation so a failed append changes nothing
	mutate(&next)
	if err := s.append(walEvent{
		Op: "state", ID: next.ID,
		State: next.State, Error: next.Error, Attempts: next.Attempts, Resumes: next.Resumes,
	}); err != nil {
		return nil, err
	}
	j.State, j.Error, j.Attempts, j.Resumes = next.State, next.Error, next.Attempts, next.Resumes
	return &next, nil
}

// MarkRunning records a worker taking the job.
func (s *Store) MarkRunning(id string) (*Job, error) {
	return s.transition(id, func(j *Job) { j.State = StateRunning; j.Attempts++ })
}

// MarkDone records successful completion.
func (s *Store) MarkDone(id string) (*Job, error) {
	return s.transition(id, func(j *Job) { j.State = StateDone; j.Error = "" })
}

// MarkFailed records terminal failure with its reason.
func (s *Store) MarkFailed(id, reason string) (*Job, error) {
	return s.transition(id, func(j *Job) { j.State = StateFailed; j.Error = reason })
}

// MarkCancelled records a user cancellation.
func (s *Store) MarkCancelled(id string) (*Job, error) {
	return s.transition(id, func(j *Job) { j.State = StateCancelled })
}

// Requeue records a drain interruption: the job goes back to queued
// with its checkpoint intact, to resume on the next attempt.
func (s *Store) Requeue(id string) (*Job, error) {
	return s.transition(id, func(j *Job) { j.State = StateQueued; j.Resumes++ })
}

// Get returns a snapshot of a job by ID. Accessors copy so callers
// read a consistent view without holding the store lock while workers
// transition the live entry.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	cp := *j
	return &cp, true
}

// Jobs lists a snapshot of every job in submit order.
func (s *Store) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		cp := *s.jobs[id]
		out = append(out, &cp)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Queued lists the queued jobs in submit order — the recovery enqueue
// set on restart.
func (s *Store) Queued() []*Job {
	var out []*Job
	for _, j := range s.Jobs() {
		if j.State == StateQueued {
			out = append(out, j)
		}
	}
	return out
}

// TornRecords reports how many WAL lines the load dropped as a
// crash-torn tail; Recovered how many running jobs were re-queued.
func (s *Store) TornRecords() int { return s.torn }

// Recovered reports how many interrupted (running-at-crash) jobs the
// open re-queued.
func (s *Store) Recovered() int { return s.recovered }

// JobDir is the per-job working directory (checkpoint, results).
func (s *Store) JobDir(id string) string {
	return filepath.Join(s.dir, "jobs", id)
}

// Close releases the WAL handle; idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("serve: store %s: %w", s.path, err)
	}
	return nil
}
