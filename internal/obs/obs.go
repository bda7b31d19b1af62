// Package obs is the study's deterministic telemetry layer: a metrics
// registry (counters, gauges, histograms with sorted, stable export),
// stage-scoped trace spans, and a run manifest folding together what
// the runtime layers used to scatter across ad-hoc counters and stdout
// — resilience attempts/retries/breaker transitions, faultsim
// injections by kind, watchdog timeouts, quarantine counts, and
// checkpoint appends/torn records.
//
// Telemetry is a side channel, never an input: nothing in the study
// reads an instrument back, so leak output and table numbers are
// byte-identical with observation on or off. Determinism is the design
// constraint — counters are order-independent sums, export walks every
// map in sorted key order, spans are emitted sorted by (site index,
// stage), and time flows through an injected Clock that defaults to a
// virtual clock pinned at the Unix epoch, so two runs of the same seed
// produce byte-identical metrics and trace files at any worker count.
// Scheduler-dependent values, such as the pipeline's capture-occupancy
// high-water mark (pipeline.Stats), stay out of the registry.
//
// A nil *Run is the no-op observer: every method is nil-receiver safe
// and allocation-free, so instrumented hot paths cost nothing when
// nobody is watching.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage labels a trace span with the pipeline stage that produced it.
type Stage string

// The study's pipeline stages, plus the sharded runtime's supervisor
// stages: one StageShard span per shard attempt and one StageMerge span
// for the verified fold.
const (
	StageCrawl      Stage = "crawl"
	StageDetect     Stage = "detect"
	StageAccumulate Stage = "accumulate"
	StageShard      Stage = "shard"
	StageMerge      Stage = "merge"
)

// stageRank orders spans within one site for the trace export.
func stageRank(s Stage) int {
	switch s {
	case StageCrawl:
		return 0
	case StageDetect:
		return 1
	case StageAccumulate:
		return 2
	case StageShard:
		return 3
	case StageMerge:
		return 4
	default:
		return 5
	}
}

// Metric names are compile-time constants (piilint's obskey analyzer
// enforces this at every call site): dynamic names would make the
// sorted export's key set depend on run-time data and break stable,
// diffable output.
const (
	// Crawl stage.
	MetricCrawlSites   = "crawl_sites_total"
	MetricCrawlOutcome = "crawl_outcome_total" // by outcome kind
	MetricCrawlRecords = "crawl_records_total"

	// Checkpoint / resume.
	MetricCheckpointAppends = "checkpoint_appends_total"
	MetricCheckpointResumed = "checkpoint_resumed_sites_total"
	MetricCheckpointTorn    = "checkpoint_torn_records_total"

	// Crash-only runtime.
	MetricWatchdogTimeouts = "crawler_watchdog_timeouts_total"
	MetricQuarantined      = "crawler_quarantined_total" // by stage

	// Fault injection.
	MetricFaultInjected = "faultsim_injected_total" // by fault kind

	// Resilient transport.
	MetricFetchAttempts   = "resilience_fetch_attempts_total"
	MetricFetchRetries    = "resilience_fetch_retries_total"
	MetricBreakerOpened   = "resilience_breaker_opened_total"
	MetricBreakerHalfOpen = "resilience_breaker_half_opened_total"
	MetricBreakerClosed   = "resilience_breaker_closed_total"
	MetricBreakerRefused  = "resilience_breaker_refusals_total"

	// Browser engine.
	MetricBrowserRequests = "browser_requests_total"
	MetricBrowserBlocked  = "browser_blocked_total"
	MetricFetchFailures   = "browser_failed_fetches_total"

	// Detection + accumulation.
	MetricDetectSites = "detect_sites_total"
	MetricDetectLeaks = "detect_leaks_total"
	MetricReleased    = "pipeline_released_captures_total"

	// Lazy-universe memory bound (gauge): the largest number of sites
	// one crawl materialized from its source — for a shard worker over
	// a lazy universe, the shard's size, never the whole universe.
	MetricUniverseMaterialized = "universe_materialized_sites"

	// Sharded runtime (supervisor-side).
	MetricShardRuns        = "shard_runs_total"         // worker attempts, by shard index
	MetricShardRestarts    = "shard_restarts_total"     // supervisor restarts, by shard index
	MetricShardStalls      = "shard_stalls_total"       // watchdog kills, by shard index
	MetricShardsCompleted  = "shard_completed_total"    // shards that produced a verified result
	MetricShardsMissing    = "shard_missing_total"      // shards dropped after the retry budget
	MetricShardMergedSites = "shard_merged_sites_total" // sites folded by the verified merge
	MetricShardDigests     = "shard_digests_verified_total"

	// Study service (cmd/piiserve): server-level admission and
	// lifecycle counters, kept on the server's own Run and exported at
	// /metrics alongside the engine build cache's hit/miss counters.
	MetricServeSubmitted = "serve_jobs_submitted_total"
	MetricServeRejected  = "serve_jobs_rejected_total" // by reason (saturated, draining, invalid)
	MetricServeFinished  = "serve_jobs_finished_total" // by terminal state
	MetricServeRequeued  = "serve_jobs_requeued_total" // drain/crash recoveries
	MetricServeRecovered = "serve_jobs_recovered_total"
	MetricServeWatchdog  = "serve_watchdog_timeouts_total"
	MetricServeTorn      = "serve_store_torn_records_total"

	// Per-site distributions.
	HistSiteRecords   = "crawl_site_records"
	HistSiteLeaks     = "detect_site_leaks"
	HistSiteVirtualMS = "crawl_site_virtual_ms"
)

// Clock is the time source spans are stamped on. It is a structural
// subset of resilience.Clock so an executor's clock plugs in directly;
// obs keeps its own copy because the dependency points the other way
// (resilience imports obs).
type Clock interface {
	Now() time.Time
}

// epochClock is the default: frozen at the Unix epoch, so span
// timestamps are all zero and export bytes never depend on wall time.
type epochClock struct{}

func (epochClock) Now() time.Time { return time.Unix(0, 0) }

// Span is one stage's work on one site. A nil *Span (from a nil Run)
// is a no-op; every method is nil-receiver safe.
type Span struct {
	run   *Run
	start time.Time
	rec   SpanRecord
}

// SpanRecord is a span's exported form: one JSONL line in the trace.
type SpanRecord struct {
	Stage Stage  `json:"stage"`
	Site  string `json:"site"`
	Index int    `json:"index"`
	// StartMS/DurMS are on the run's clock — zero under the default
	// epoch clock, virtual milliseconds under a fault run's
	// VirtualClock, never wall time unless a real clock is injected.
	StartMS int64 `json:"start_ms"`
	DurMS   int64 `json:"dur_ms"`
	// N is the span's payload size: records captured for crawl spans,
	// leaks found for detect spans.
	N int `json:"n"`
	// Outcome is the crawl outcome (crawl spans only).
	Outcome string `json:"outcome,omitempty"`
}

// SetN records the span's payload size.
func (s *Span) SetN(n int) {
	if s == nil {
		return
	}
	s.rec.N = n
}

// SetOutcome records the site's crawl outcome.
func (s *Span) SetOutcome(outcome string) {
	if s == nil {
		return
	}
	s.rec.Outcome = outcome
}

// AddDuration adds d to the span's duration on top of whatever the
// run's clock observes — the crawler feeds each site transport's
// virtual elapsed time through here, so fault-run traces carry the
// deterministic simulated cost per site.
func (s *Span) AddDuration(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.rec.DurMS += d.Milliseconds()
}

// End closes the span and files it with the run.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.DurMS += s.run.clock.Now().Sub(s.start).Milliseconds()
	s.run.mu.Lock()
	s.run.spans = append(s.run.spans, s.rec)
	s.run.mu.Unlock()
}

// Watermark tracks a level and its high-water mark with lock-free
// updates — the pipeline's in-flight capture bound. The zero value is
// ready to use.
type Watermark struct {
	cur, high atomic.Int64
}

// Inc raises the level, ratcheting the high-water mark.
func (w *Watermark) Inc() {
	c := w.cur.Add(1)
	for {
		h := w.high.Load()
		if c <= h || w.high.CompareAndSwap(h, c) {
			return
		}
	}
}

// Dec lowers the level.
func (w *Watermark) Dec() { w.cur.Add(-1) }

// High returns the high-water mark.
func (w *Watermark) High() int64 { return w.high.Load() }

// Run is one study run's telemetry: the metrics registry plus the span
// trace. A nil *Run is the no-op observer — every method is safe and
// allocation-free on a nil receiver. A non-nil Run is safe for
// concurrent use from all pipeline stages.
type Run struct {
	clock Clock

	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]*hist
	spans    []SpanRecord
	info     RunInfo
}

// NewRun builds an observer on the given clock; nil selects the epoch
// clock (the deterministic default — see the package doc).
func NewRun(clock Clock) *Run {
	if clock == nil {
		clock = epochClock{}
	}
	return &Run{
		clock:    clock,
		counters: map[string]int64{},
		gauges:   map[string]int64{},
		hists:    map[string]*hist{},
	}
}

// SetInfo records the run's identifying metadata for the manifest.
func (r *Run) SetInfo(info RunInfo) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.info = info
	r.mu.Unlock()
}

// key renders a labeled metric name as name{label}.
func key(name, label string) string {
	return name + "{" + label + "}"
}

// Count adds delta to a counter. name must be a compile-time constant
// (enforced by piilint obskey).
func (r *Run) Count(name string, delta int64) {
	if r == nil || delta == 0 {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// CountKind adds delta to the kind-labeled series of a counter family,
// exported as name{kind}. The family name must be a compile-time
// constant; the kind is data (an outcome, a fault kind, a stage).
func (r *Run) CountKind(name, kind string, delta int64) {
	if r == nil || delta == 0 {
		return
	}
	r.mu.Lock()
	r.counters[key(name, kind)] += delta
	r.mu.Unlock()
}

// GaugeSet sets a gauge to v.
func (r *Run) GaugeSet(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// GaugeMax ratchets a gauge up to v if v exceeds its current value.
func (r *Run) GaugeMax(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if cur, ok := r.gauges[name]; !ok || v > cur {
		r.gauges[name] = v
	}
	r.mu.Unlock()
}

// Observe feeds v into a histogram.
func (r *Run) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = &hist{min: v, max: v}
		r.hists[name] = h
	}
	h.add(v)
	r.mu.Unlock()
}

// StartSpan opens a stage span for one site. On a nil Run it returns a
// nil Span, whose methods are all no-ops — the hot path allocates
// nothing when unobserved.
func (r *Run) StartSpan(stage Stage, site string, index int) *Span {
	if r == nil {
		return nil
	}
	return &Span{
		run:   r,
		start: r.clock.Now(),
		rec: SpanRecord{
			Stage:   stage,
			Site:    site,
			Index:   index,
			StartMS: r.clock.Now().Sub(time.Unix(0, 0)).Milliseconds(),
		},
	}
}

// counter reads one counter under the lock (export helpers).
func (r *Run) counter(name string) int64 {
	return r.counters[name]
}
