// Package pipeline fuses the study's crawl and detection stages into
// one streaming pass. Crawl workers emit per-site captures into a
// bounded channel; detect workers scan each capture as it arrives and
// release the records immediately afterwards (keeping only the reduced
// request index the §7.2 blocklist evaluation needs); a single
// accumulation goroutine folds each site's output into the shared Result
// store — the §4.2 analysis indexes, the §5 tracking index and the §6
// policy-audit sender set — through the Accumulator the sharded merge
// also uses. Peak memory is bounded by the number of captures in flight
// (crawl workers + channel buffer + detect workers) instead of the whole
// crawl.
//
// Determinism: per-site outputs land in site-index slots and are
// concatenated in site order at the end, detection runs only on
// successful crawls, and every accumulated aggregate is a set — so
// serial, parallel, checkpoint-resumed and sharded runs produce
// byte-identical leak output and identical table numbers regardless of
// completion order.
package pipeline

import (
	"context"
	"fmt"
	"sync"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/httpmodel"
	"piileak/internal/obs"
	"piileak/internal/tracking"
	"piileak/internal/webgen"
)

// Detector is what the detection stage needs from a scanner. The one
// production implementation is *detect.Engine, from which each detect
// worker derives a private Scanner; tests substitute misbehaving
// detectors to exercise the crash-only path.
type Detector interface {
	DetectSite(siteDomain string, records []httpmodel.Record) []core.Leak
}

// Options configures a study run. The embedded crawler.Options is the
// single source of truth for the crawl stage — its Workers field IS the
// crawl parallelism (<= 1 crawls serially with one browser), its Obs
// field is the run's observer, and its site-source / fault / checkpoint
// / watchdog knobs apply unchanged. There is no separate
// CrawlWorkers override anymore; Validate rejects contradictions
// instead of silently preferring one side.
type Options struct {
	crawler.Options

	// DetectWorkers sets the detection stage's parallelism; <= 0 means
	// one worker.
	DetectWorkers int
	// Buffer is the capture channel's capacity; <= 0 selects 2. Together
	// with the worker counts it bounds the captures in flight.
	Buffer int
	// Progress, when set, receives per-stage completion events. It is
	// never called concurrently.
	Progress func(Event)
	// Sink, when set, receives every site's output — the thin crawl
	// record, side effects, leaks and the reduced request list — as the
	// accumulate stage folds it, in completion order. It is the shard
	// runtime's extraction point: a shard worker collects SiteOuts to
	// serialize per-site results for the verified merge. Never called
	// concurrently.
	Sink func(SiteOut)
}

// Validate rejects contradictory or nonsensical settings, delegating
// the crawl-level checks to the embedded crawler.Options.
func (o Options) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if o.Workers < 0 {
		return fmt.Errorf("pipeline: negative crawl Workers %d", o.Workers)
	}
	if o.DetectWorkers < 0 {
		return fmt.Errorf("pipeline: negative DetectWorkers %d", o.DetectWorkers)
	}
	if o.Buffer < 0 {
		return fmt.Errorf("pipeline: negative Buffer %d", o.Buffer)
	}
	return nil
}

// Event is one progress tick from a pipeline stage.
type Event struct {
	// Stage is "crawl" or "detect".
	Stage string
	// Done counts completed sites in the stage, out of Total.
	Done, Total int
	// Site is the domain that just completed.
	Site string
	// Outcome is the site's crawl outcome (crawl events only) — the
	// funnel bucket progress consumers surface without waiting for the
	// assembled dataset.
	Outcome string
	// Leaks is the cumulative leak count (detect events only).
	Leaks int
}

// SiteOut is one site after detection, as the accumulate stage folds it
// and Options.Sink receives it: the thin crawl result (records released)
// with its mail and shield-block side effects, the detected leaks, the
// reduced request list (leaky sites only), and the pre-release record
// count.
type SiteOut struct {
	// Result is the site's crawl output without its records;
	// Result.Index is its index in the run's site list.
	Result crawler.SiteResult
	// Leaks are the site's detected leaks, in detection order.
	Leaks []core.Leak
	// Requests is the reduced request list when the site leaked (the
	// §7.2 evaluation's retained state); nil otherwise.
	Requests []httpmodel.IndexedRequest
	// Records is the site's captured request count before any release.
	Records int
}

// Stats carries a finished run's counters.
type Stats struct {
	// Sites is the crawled-site count; Successes the auth-flow
	// completions (the analysis denominator).
	Sites, Successes int
	// Leaks is the total detected leak count.
	Leaks int
	// CaptureHighWater is the maximum number of record-bearing captures
	// simultaneously in flight — the pipeline's memory bound. It depends
	// on scheduling in parallel runs, so it stays out of the
	// deterministic telemetry registry; only Run sets it.
	CaptureHighWater int
	// Released counts sites whose records were dropped after detection.
	Released int
}

// Result is the shared study store every downstream view reads from:
// §4.2 analysis, §5 tracking classification, §6 audit senders and the
// §7.2 request index all come out of the same single-pass accumulation.
type Result struct {
	// Leaks is the full leak list in site order — byte-identical to a
	// crawl-then-detect loop's output.
	Leaks []core.Leak
	// Analysis is the finalized §4.2 aggregate view.
	Analysis *core.Analysis
	// Tracking is the incremental §5 index; call Classification() for
	// the Table 2 census.
	Tracking *tracking.Index
	// Senders is the distinct leaking first parties — the §6 policy
	// audit population.
	Senders map[string]bool
	// Requests is the reduced per-site request index (leaky sites only)
	// for the §7.2 blocklist evaluation.
	Requests *httpmodel.RequestIndex
	// Dataset is the assembled crawl dataset, thin: crawl outcomes,
	// mailbox and block counters survive, records do not.
	Dataset *crawler.Dataset
	// TotalRecords counts captured requests across all sites, counted
	// before any release.
	TotalRecords int
	// Stats carries the run counters.
	Stats Stats
}

// detectGuarded runs detection on one capture with panic isolation: a
// detector that blows up on a poison site loses that site (recorded as
// OutcomeCrashed and quarantined with its stack), not the study.
func detectGuarded(det Detector, out *SiteOut, eco *webgen.Ecosystem, copts crawler.Options) {
	defer func() {
		if r := recover(); r != nil {
			out.Leaks = nil
			out.Result.Crawl.Outcome = crawler.OutcomeCrashed
			var faultSeed uint64
			if inj := copts.Faults; inj != nil {
				faultSeed = inj.Seed()
			} else if eco.Faults != nil {
				faultSeed = eco.Faults.Seed()
			}
			copts.Quarantine.Add(crawler.BundleFor(crawler.StageDetect, &out.Result.Crawl, eco.Config.Seed, faultSeed, r))
			copts.Obs.CountKind(obs.MetricQuarantined, crawler.StageDetect, 1)
		}
	}()
	out.Leaks = det.DetectSite(out.Result.Crawl.Domain, out.Result.Crawl.Records)
}

// Run executes the fused crawl+detect+accumulate pipeline and returns
// the shared result store. Cancelling ctx stops the crawl stage (the
// site in flight is discarded, exactly as in crawler.CrawlStream); the
// detect and accumulate stages drain what was already captured before
// Run returns ctx's error, so a checkpointed run is left resumable. A
// panicking detector does not kill the run: the site is marked
// OutcomeCrashed, quarantined (opts.Quarantine), and skipped. opts.Obs
// observes every stage; a nil observer costs nothing.
func Run(ctx context.Context, eco *webgen.Ecosystem, profile browser.Profile, det Detector, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	src := opts.Source
	if src == nil {
		src = eco.Universe()
	}
	total := src.Len()
	o := opts.Obs

	detectWorkers := opts.DetectWorkers
	if detectWorkers <= 0 {
		detectWorkers = 1
	}
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = 2
	}

	var (
		progressMu sync.Mutex
		crawled    int
	)
	emitEvent := func(ev Event) {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		opts.Progress(ev)
		progressMu.Unlock()
	}

	var g obs.Watermark
	captures := make(chan crawler.SiteResult, buffer)
	outputs := make(chan SiteOut, buffer)

	// Stage 1: crawl. Emissions block on the captures channel, which is
	// the backpressure that bounds the pipeline's in-flight state. The
	// crawl walks the resolved source, so it and the accumulator agree
	// on the population.
	copts := opts.Options
	copts.Source = src
	var crawlErr error
	go func() {
		defer close(captures)
		crawlErr = crawler.CrawlStream(ctx, eco, profile, copts, func(r crawler.SiteResult) error {
			g.Inc()
			captures <- r
			progressMu.Lock()
			crawled++
			n := crawled
			progressMu.Unlock()
			if opts.Progress != nil {
				emitEvent(Event{Stage: "crawl", Done: n, Total: total, Site: r.Crawl.Domain, Outcome: string(r.Crawl.Outcome)})
			}
			return nil
		})
	}()

	// Stage 2: detect. Each worker scans a capture's records and then
	// releases them, reducing leaky sites to the request index first.
	var wg sync.WaitGroup
	for w := 0; w < detectWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// An Engine detector is shared compile-time state; each
			// worker scans through its own Scanner so the per-record
			// scratch (match buffers, decode buffers, receiver memo) is
			// never contended.
			wdet := det
			if eng, ok := det.(*detect.Engine); ok {
				wdet = eng.NewScanner()
			}
			for r := range captures {
				sp := o.StartSpan(obs.StageDetect, r.Crawl.Domain, r.Index)
				out := SiteOut{Result: r, Records: len(r.Crawl.Records)}
				if r.Crawl.Outcome == crawler.OutcomeSuccess {
					detectGuarded(wdet, &out, eco, copts)
				}
				if len(out.Leaks) > 0 {
					out.Requests = httpmodel.ReduceRecords(r.Crawl.Records)
				}
				out.Result.Crawl.Records = nil
				g.Dec()
				sp.SetN(len(out.Leaks))
				sp.End()
				outputs <- out
			}
		}()
	}
	go func() {
		wg.Wait()
		close(outputs)
	}()

	// Stage 3: accumulate — the single goroutine (this one) that owns
	// the shared store. The fold keeps per-site slots, so the final
	// concatenation is in site order no matter when each site finished.
	acc := NewAccumulator(total)
	detected := 0
	for out := range outputs {
		ap := o.StartSpan(obs.StageAccumulate, out.Result.Crawl.Domain, out.Result.Index)
		acc.Add(out)
		if out.Records > 0 {
			o.Count(obs.MetricReleased, 1)
		}
		detected++
		o.Count(obs.MetricDetectSites, 1)
		o.Count(obs.MetricDetectLeaks, int64(len(out.Leaks)))
		o.Observe(obs.HistSiteLeaks, int64(len(out.Leaks)))
		ap.SetN(len(out.Leaks))
		ap.End()
		if opts.Sink != nil {
			opts.Sink(out)
		}
		emitEvent(Event{Stage: "detect", Done: detected, Total: total, Site: out.Result.Crawl.Domain, Leaks: acc.Leaks()})
	}
	if crawlErr != nil {
		return nil, crawlErr
	}
	res := acc.Result(eco, profile)
	res.Stats.CaptureHighWater = int(g.High())
	return res, nil
}
