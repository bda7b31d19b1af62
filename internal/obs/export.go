package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
)

// hist is a streaming summary histogram: count/sum/min/max plus
// power-of-two magnitude buckets, enough to characterize per-site
// distributions without retaining samples.
type hist struct {
	count, sum, min, max int64
	buckets              [16]int64 // buckets[i] counts v with 2^(i-1) < v <= 2^i-ish (log2 magnitude)
}

func (h *hist) add(v int64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	b := 0
	for x := v; x > 1 && b < len(h.buckets)-1; x >>= 1 {
		b++
	}
	h.buckets[b]++
}

// HistSnapshot is a histogram's exported form.
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Buckets[i] counts observations of log2 magnitude i (index 0 holds
	// values <= 1); trailing zero buckets are trimmed.
	Buckets []int64 `json:"buckets"`
}

func (h *hist) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	last := -1
	for i, n := range h.buckets {
		if n != 0 {
			last = i
		}
	}
	s.Buckets = append([]int64{}, h.buckets[:last+1]...)
	return s
}

// RunInfo is the manifest's run identity block: everything needed to
// reproduce the run the telemetry came from.
type RunInfo struct {
	EcoSeed       uint64 `json:"eco_seed"`
	FaultSeed     uint64 `json:"fault_seed,omitempty"`
	Browser       string `json:"browser,omitempty"`
	Sites         int    `json:"sites,omitempty"`
	CrawlWorkers  int    `json:"crawl_workers,omitempty"`
	DetectWorkers int    `json:"detect_workers,omitempty"`
	// Shards is the shard count of a sharded study (zero when unsharded);
	// Shard is the "i/K" label when this telemetry covers a single shard
	// worker rather than a whole supervised study.
	Shards int    `json:"shards,omitempty"`
	Shard  string `json:"shard,omitempty"`
}

// Manifest folds the registry into the run summary the CLIs print and
// the metrics file leads with: what ran, what failed, and what the
// resilience machinery did about it.
type Manifest struct {
	// Schema versions the manifest layout.
	Schema int     `json:"schema"`
	Run    RunInfo `json:"run"`

	// Outcomes counts crawled sites by outcome kind.
	Outcomes map[string]int64 `json:"outcomes,omitempty"`
	// Faults counts injected faults by kind.
	Faults map[string]int64 `json:"faults,omitempty"`
	// Quarantined counts quarantined sites by stage (crawl/detect).
	Quarantined map[string]int64 `json:"quarantined,omitempty"`

	Resilience ResilienceManifest `json:"resilience"`
	Checkpoint CheckpointManifest `json:"checkpoint"`
	Pipeline   PipelineManifest   `json:"pipeline"`
	// Sharding is present only on supervised sharded runs.
	Sharding *ShardingManifest `json:"sharding,omitempty"`
}

// ResilienceManifest summarizes the retry/breaker/watchdog machinery.
type ResilienceManifest struct {
	Attempts         int64 `json:"attempts"`
	Retries          int64 `json:"retries"`
	FailedFetches    int64 `json:"failed_fetches"`
	BreakerOpened    int64 `json:"breaker_opened"`
	BreakerHalfOpen  int64 `json:"breaker_half_opened"`
	BreakerClosed    int64 `json:"breaker_closed"`
	BreakerRefusals  int64 `json:"breaker_refusals"`
	WatchdogTimeouts int64 `json:"watchdog_timeouts"`
}

// CheckpointManifest summarizes crash-only persistence activity.
type CheckpointManifest struct {
	Appends      int64 `json:"appends"`
	ResumedSites int64 `json:"resumed_sites"`
	TornRecords  int64 `json:"torn_records"`
}

// ShardingManifest summarizes a supervised sharded run: how many shards
// were planned, how the supervisor fought for them, and what the
// verified merge folded.
type ShardingManifest struct {
	Planned         int64 `json:"planned"`
	Completed       int64 `json:"completed"`
	Missing         int64 `json:"missing"`
	Runs            int64 `json:"runs"`
	Restarts        int64 `json:"restarts"`
	Stalls          int64 `json:"stalls"`
	MergedSites     int64 `json:"merged_sites"`
	DigestsVerified int64 `json:"digests_verified"`
}

// PipelineManifest summarizes the fused pipeline's throughput.
type PipelineManifest struct {
	CrawledSites     int64 `json:"crawled_sites"`
	Records          int64 `json:"records"`
	DetectedSites    int64 `json:"detected_sites"`
	Leaks            int64 `json:"leaks"`
	ReleasedCaptures int64 `json:"released_captures"`
}

// labeled extracts a counter family's per-label values: every key of
// the form name{label}.
func (r *Run) labeled(name string) map[string]int64 {
	var out map[string]int64
	prefix := name + "{"
	for k, v := range r.counters {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, "}") {
			if out == nil {
				out = map[string]int64{}
			}
			out[k[len(prefix):len(k)-1]] = v
		}
	}
	return out
}

// Manifest assembles the run summary from the registry.
func (r *Run) Manifest() Manifest {
	if r == nil {
		return Manifest{Schema: 1}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Manifest{
		Schema:      1,
		Run:         r.info,
		Outcomes:    r.labeled(MetricCrawlOutcome),
		Faults:      r.labeled(MetricFaultInjected),
		Quarantined: r.labeled(MetricQuarantined),
		Resilience: ResilienceManifest{
			Attempts:         r.counter(MetricFetchAttempts),
			Retries:          r.counter(MetricFetchRetries),
			FailedFetches:    r.counter(MetricFetchFailures),
			BreakerOpened:    r.counter(MetricBreakerOpened),
			BreakerHalfOpen:  r.counter(MetricBreakerHalfOpen),
			BreakerClosed:    r.counter(MetricBreakerClosed),
			BreakerRefusals:  r.counter(MetricBreakerRefused),
			WatchdogTimeouts: r.counter(MetricWatchdogTimeouts),
		},
		Checkpoint: CheckpointManifest{
			Appends:      r.counter(MetricCheckpointAppends),
			ResumedSites: r.counter(MetricCheckpointResumed),
			TornRecords:  r.counter(MetricCheckpointTorn),
		},
		Pipeline: PipelineManifest{
			CrawledSites:     r.counter(MetricCrawlSites),
			Records:          r.counter(MetricCrawlRecords),
			DetectedSites:    r.counter(MetricDetectSites),
			Leaks:            r.counter(MetricDetectLeaks),
			ReleasedCaptures: r.counter(MetricReleased),
		},
		Sharding: r.sharding(),
	}
}

// sharding assembles the manifest's sharding block, or nil when the run
// never touched the shard supervisor. Per-shard series (runs/restarts
// by shard index) are folded into totals here; the labeled breakdowns
// stay available in the raw counter export.
func (r *Run) sharding() *ShardingManifest {
	if r.info.Shards == 0 && r.counter(MetricShardsCompleted) == 0 && r.counter(MetricShardsMissing) == 0 {
		return nil
	}
	sum := func(name string) int64 {
		var total int64
		for _, v := range r.labeled(name) {
			total += v
		}
		return total
	}
	return &ShardingManifest{
		Planned:         int64(r.info.Shards),
		Completed:       r.counter(MetricShardsCompleted),
		Missing:         r.counter(MetricShardsMissing),
		Runs:            sum(MetricShardRuns),
		Restarts:        sum(MetricShardRestarts),
		Stalls:          sum(MetricShardStalls),
		MergedSites:     r.counter(MetricShardMergedSites),
		DigestsVerified: r.counter(MetricShardDigests),
	}
}

// Export is the metrics file's shape: the manifest up front, then the
// full registry. encoding/json marshals every map in sorted key order,
// which is what makes the export stable and diffable across runs.
type Export struct {
	Manifest   Manifest                `json:"manifest"`
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry for export.
func (r *Run) Snapshot() Export {
	ex := Export{Manifest: r.Manifest(), Counters: map[string]int64{}}
	if r == nil {
		return ex
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		ex.Counters[k] = v
	}
	for k, v := range r.gauges {
		if ex.Gauges == nil {
			ex.Gauges = map[string]int64{}
		}
		ex.Gauges[k] = v
	}
	for k, h := range r.hists {
		if ex.Histograms == nil {
			ex.Histograms = map[string]HistSnapshot{}
		}
		ex.Histograms[k] = h.snapshot()
	}
	return ex
}

// WriteMetrics writes the metrics + manifest export as indented JSON.
// Two runs of the same seed and configuration produce byte-identical
// output (sorted maps, deterministic counters, clock-derived times).
func (r *Run) WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Snapshot())
}

// Trace returns the run's spans sorted by (site index, stage, site) —
// the deterministic order WriteTrace emits.
func (r *Run) Trace() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]SpanRecord{}, r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Index != spans[j].Index {
			return spans[i].Index < spans[j].Index
		}
		if a, b := stageRank(spans[i].Stage), stageRank(spans[j].Stage); a != b {
			return a < b
		}
		return spans[i].Site < spans[j].Site
	})
	return spans
}

// WriteTrace writes the span trace as JSONL, one span per line, in the
// deterministic (site index, stage) order.
func (r *Run) WriteTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.Trace() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
