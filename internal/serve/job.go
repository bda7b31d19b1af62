// Package serve is the study as a long-running, multi-tenant service:
// an HTTP API wrapping Study.Run(ctx, ...RunOption) behind a durable
// job queue. The design is crash-only end to end — the server inherits
// every guarantee the runtime already has (per-job checkpoints,
// torn-tail-tolerant resume, watchdogs) and adds the server-side ones
// it needs:
//
//   - a durable JSONL-backed job store (an append-only WAL with the
//     same torn-tail tolerance as the crawl checkpoint format): kill -9
//     the server mid-study, restart it, and queued jobs re-enqueue while
//     running jobs resume from their per-job checkpoint to byte-identical
//     results;
//   - a bounded worker pool with admission control: a fixed number of
//     concurrent study slots and a bounded queue, with saturated
//     submissions refused as 429 + Retry-After instead of accepted into
//     an unbounded backlog that OOMs the process;
//   - graceful drain: the first SIGTERM stops admission, cancels
//     in-flight jobs between sites (their checkpoints stay valid
//     prefixes), re-queues them durably and exits 0 with everything
//     resumable — the same contract piicrawl's signal handler keeps;
//   - multi-tenant sharing of immutable detection state: two jobs with
//     the same persona and candidate config compile one automaton,
//     through the process-wide engine build cache (internal/detect).
//
// Progress streams as SSE (or JSONL) with Last-Event-ID resume, fed by
// the pipeline's progress events and the internal/obs span/metrics
// layer. Results — the leak dataset and the paper's Tables 1, 2 and 4 —
// are byte-identical to the same spec run via piicrawl -stream.
package serve

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"piileak"
	"piileak/internal/cliflags"
)

// State is a job's lifecycle position. The durable transitions are
//
//	queued → running → done | failed | cancelled
//	running → queued            (drain, crash recovery)
//
// done, failed and cancelled are terminal; a running job found in the
// WAL on restart was interrupted by a crash and re-enters the queue
// with its checkpoint intact.
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is one study submission: the piicrawl flag surface as a JSON
// document. Each field sets the flag named beside it, and an unset
// (zero) field leaves that flag at its default, so {"seed":7,"small":true}
// is a complete spec. A spec is parsed, validated and run by the same
// code as the flags (internal/cliflags).
type Spec struct {
	// Seed sets -seed; 0 keeps the default, the paper's 2021.
	Seed uint64 `json:"seed"`
	// Small sets -small.
	Small bool `json:"small,omitempty"`
	// Browser sets -browser; empty keeps firefox.
	Browser string `json:"browser,omitempty"`
	// Workers and DetectWorkers set -workers and -detect-workers: the
	// job runs the larger of the two as its workers, each crawling,
	// scanning and folding its own sites.
	Workers       int `json:"workers,omitempty"`
	DetectWorkers int `json:"detect_workers,omitempty"`
	// Faults, FaultSeed and Retries set -faults, -fault-seed and
	// -retries.
	Faults    float64 `json:"faults,omitempty"`
	FaultSeed uint64  `json:"fault_seed,omitempty"`
	Retries   int     `json:"retries,omitempty"`
	// SiteTimeout sets -site-timeout, as a Go duration string ("30s").
	SiteTimeout string `json:"site_timeout,omitempty"`
	// Only sets -only, one domain per element.
	Only []string `json:"only,omitempty"`
	// UniverseSize sets -universe.
	UniverseSize int `json:"universe_size,omitempty"`
}

// flags maps the spec onto the flag surface it mirrors: the flags'
// defaults, overridden by every field the spec sets. Only the fields
// whose JSON form differs from the flag's are checked here — a
// site_timeout that is not a duration, and an only element the
// comma-joined flag cannot carry as one domain (one holding a comma,
// which would name two, or an empty one, which would name none); the
// flags' own validator judges the rest, a blank only element included.
func (sp *Spec) flags() (*cliflags.Common, error) {
	c := cliflags.Register(flag.NewFlagSet("spec", flag.ContinueOnError))
	if sp.Seed != 0 {
		c.Seed = sp.Seed
	}
	if sp.Browser != "" {
		c.Browser = sp.Browser
	}
	c.Small, c.Universe = sp.Small, sp.UniverseSize
	c.Workers, c.DetectWorkers = sp.Workers, sp.DetectWorkers
	c.Faults, c.FaultSeed, c.Retries = sp.Faults, sp.FaultSeed, sp.Retries
	c.Only = strings.Join(sp.Only, ",")
	if sp.SiteTimeout != "" {
		d, err := time.ParseDuration(sp.SiteTimeout)
		if err != nil {
			return c, fmt.Errorf("site_timeout: %v", err)
		}
		c.SiteTimeout = d
	}
	for i, d := range sp.Only {
		if d == "" {
			return c, fmt.Errorf("only: element %d is an empty site domain", i)
		}
		if strings.Contains(d, ",") {
			return c, fmt.Errorf("only: element %q holds a comma; give one site domain per element", d)
		}
	}
	return c, nil
}

// Validate rejects a spec the flags would refuse, before any ecosystem
// generation happens — the admission path must stay cheap.
func (sp *Spec) Validate() error {
	c, err := sp.flags()
	if err != nil {
		return err
	}
	return c.Validate()
}

// StudyConfig builds the piileak configuration the spec describes,
// exactly as the same flags would.
func (sp *Spec) StudyConfig() piileak.Config {
	c, _ := sp.flags() // a site_timeout error leaves the study's shape intact
	return c.StudyConfig()
}

// Job is one submitted study: the durable fields the WAL persists plus
// the in-memory runtime state the server attaches while it owns the
// job. Durable fields are only mutated through the Store so every
// transition hits the WAL before it is observable.
type Job struct {
	// ID is the store-assigned identifier (j1, j2, ... in submit order).
	ID string `json:"id"`
	// Seq is the submit sequence number backing the ID; queue order is
	// ascending Seq.
	Seq int `json:"seq"`
	// Spec is the submitted study description.
	Spec Spec `json:"spec"`
	// State is the durable lifecycle position.
	State State `json:"state"`
	// Error carries the terminal failure reason (failed jobs).
	Error string `json:"error,omitempty"`
	// Attempts counts run starts, including resumed ones.
	Attempts int `json:"attempts,omitempty"`
	// Resumes counts crash/drain recoveries: how many times the job
	// went running → queued with its checkpoint intact.
	Resumes int `json:"resumes,omitempty"`
}

// JobView is the API's status rendering of a job.
type JobView struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Resumes  int    `json:"resumes,omitempty"`
	Spec     Spec   `json:"spec"`
}

// View renders the job for the status API.
func (j *Job) View() JobView {
	return JobView{
		ID:       j.ID,
		State:    j.State,
		Error:    j.Error,
		Attempts: j.Attempts,
		Resumes:  j.Resumes,
		Spec:     j.Spec,
	}
}
