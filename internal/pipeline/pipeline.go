// Package pipeline fuses the study's crawl and detection stages into
// one streaming pass. Crawl workers emit per-site captures into a
// bounded channel; detect workers scan each capture as it arrives and
// release the records immediately afterwards (keeping only the reduced
// request index the §7.2 blocklist evaluation needs, and handing the
// record slice back for a crawl worker's next site); a single
// accumulation goroutine folds each site's output into the shared Result
// store — the §4.2 analysis indexes, the §5 tracking index and the §6
// policy-audit sender set — through the Accumulator the sharded merge
// also uses. Captured records are bounded by the captures in flight
// (crawl workers + channel buffer + detect workers) instead of the whole
// crawl, and the fold keeps per site only its crawl record, plus leaks
// and mail for the sites that have them.
//
// Determinism: each crawl lands at its site index and the kept leaks
// and mail are concatenated in site order at the end, detection runs
// only on successful crawls, and every accumulated aggregate is a set
// or a sum — so serial, parallel, checkpoint-resumed and sharded runs
// produce byte-identical leak output and identical table numbers
// regardless of completion order.
//
// A checkpointed run appends each site in the accumulate stage, after
// detection, so its file holds exactly what the fold needs and a
// resumed site skips both the crawl and detection.
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
// detectors to exercise the crash-only path. DetectSite must not keep
// records once it returns: the detect stage then hands them back for
// reuse.
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
	// Progress, when set, receives per-stage completion events. It is
	// never called concurrently.
	Progress func(Event)
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
	return nil
}

// captureBuffer is the capacity of the captures channel (and of the
// detect outputs channel): two sites, so a crawl worker can hand a
// capture off while every detect worker is busy, without letting a
// lagging detection stage pile up records. With the worker counts it
// bounds the captures in flight: crawl workers + captureBuffer + detect
// workers.
const captureBuffer = 2

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

// DetectPin names what det detects, for the checkpoint header: an
// Engine's candidate-set digest, any other detector's type name (the
// tests' fakes). A checkpoint written under another candidate set holds
// another detector's leaks, so a resume refuses it.
func DetectPin(det Detector) string {
	if eng, ok := det.(*detect.Engine); ok {
		return eng.Candidates().Digest()
	}
	return fmt.Sprintf("%T", det)
}

// detectGuarded runs detection on one capture with panic isolation: a
// detector that blows up on a poison site loses that site (recorded as
// OutcomeCrashed and quarantined with its stack), not the study.
func detectGuarded(det Detector, out *crawler.SiteResult, eco *webgen.Ecosystem, copts crawler.Options) {
	defer func() {
		if r := recover(); r != nil {
			out.Leaks = nil
			out.Crawl.Outcome = crawler.OutcomeCrashed
			copts.Quarantine.Add(crawler.BundleFor(crawler.StageDetect, &out.Crawl, eco.Config.Seed, copts.FaultPin(eco).FaultSeed, r))
			copts.Obs.CountKind(obs.MetricQuarantined, crawler.StageDetect, 1)
		}
	}()
	out.Leaks = det.DetectSite(out.Crawl.Domain, out.Crawl.Records)
}

// Run executes the fused crawl+detect+accumulate pipeline and returns
// the shared result store. Cancelling ctx stops the crawl stage (the
// site in flight is discarded, exactly as in crawler.CrawlStream); the
// detect and accumulate stages drain what was already captured before
// Run returns ctx's error, so a checkpointed run is left resumable. With
// CheckpointPath set, the accumulate stage appends each site after
// detection, and a resume folds the file's sites — counted in the
// progress events and telemetry like the rest — and crawls only the
// others; a completed run completes the checkpoint, which seals a
// shard's (crawler.Checkpoint.Complete). A panicking detector does not
// kill the run: the site is marked OutcomeCrashed, quarantined
// (opts.Quarantine), and checkpointed as such. opts.Obs observes every
// stage; a nil observer costs nothing.
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

	// Progress calls are serialized. A crawl worker counts its site and
	// reports the count in one lock hold, so crawl events arrive in
	// count order however many workers race for the lock.
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
	crawlEvent := func(r *crawler.SiteResult) {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		crawled++
		opts.Progress(Event{Stage: "crawl", Done: crawled, Total: total, Site: r.Crawl.Domain, Outcome: string(r.Crawl.Outcome)})
	}

	// The fold is the accumulate stage's single owner of the shared
	// store. It keeps each site's output under its index, so the final
	// concatenation is in site order no matter when each site finished.
	acc := NewAccumulator(total)
	detected := 0
	fold := func(r crawler.SiteResult) {
		acc.Add(r)
		if r.Records > 0 {
			o.Count(obs.MetricReleased, 1)
		}
		detected++
		o.Count(obs.MetricDetectSites, 1)
		o.Count(obs.MetricDetectLeaks, int64(len(r.Leaks)))
		o.Observe(obs.HistSiteLeaks, int64(len(r.Leaks)))
		emitEvent(Event{Stage: "detect", Done: detected, Total: total, Site: r.Crawl.Domain, Leaks: acc.Leaks()})
	}

	// The crawl walks the resolved source, so it and the accumulator
	// agree on the population; a resume hands it only the unfinished
	// sites.
	copts := opts.Options
	copts.Source = src
	var ckpt *crawler.Checkpoint
	if opts.CheckpointPath != "" {
		var err error
		ckpt, err = crawler.OpenCheckpoint(eco, profile, copts, DetectPin(det), func(r crawler.SiteResult) {
			crawlEvent(&r)
			fold(r)
		})
		if err != nil {
			return nil, err
		}
		defer ckpt.Close()
		copts.Source = ckpt.Unfinished(src)
	}
	// A failed append stops the crawl through this context.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var g obs.Watermark
	captures := make(chan crawler.SiteResult, captureBuffer)
	outputs := make(chan crawler.SiteResult, captureBuffer)

	// Stage 1: crawl. Emissions block on the captures channel, which is
	// the backpressure that bounds the pipeline's in-flight state.
	var crawlErr error
	go func() {
		defer close(captures)
		crawlErr = crawler.CrawlStream(ctx, eco, profile, copts, func(r crawler.SiteResult) error {
			g.Inc()
			captures <- r
			crawlEvent(&r)
			return nil
		})
	}()

	// Stage 2: detect. Each worker scans a capture's records and then
	// releases them, reducing leaky sites to the request index first, and
	// hands the released slice back to the browsers (browser.Recycle).
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
				if r.Crawl.Outcome == crawler.OutcomeSuccess {
					detectGuarded(wdet, &r, eco, copts)
				}
				if len(r.Leaks) > 0 {
					r.Requests = httpmodel.ReduceRecords(r.Crawl.Records)
				}
				// Nothing reads the records after this: hand them back
				// for a crawl worker's next site to append into.
				browser.Recycle(r.Crawl.Records)
				r.Crawl.Records = nil
				g.Dec()
				sp.SetN(len(r.Leaks))
				sp.End()
				outputs <- r
			}
		}()
	}
	go func() {
		wg.Wait()
		close(outputs)
	}()

	// Stage 3: accumulate, on this goroutine: append each site to the
	// checkpoint, then fold it. After a failed append the stage only
	// drains, so the other stages can stop.
	var appendErr error
	for r := range outputs {
		if appendErr != nil {
			continue
		}
		if ckpt != nil {
			if appendErr = ckpt.Append(r); appendErr != nil {
				cancel()
				continue
			}
		}
		ap := o.StartSpan(obs.StageAccumulate, r.Crawl.Domain, r.Index)
		fold(r)
		ap.SetN(len(r.Leaks))
		ap.End()
	}
	if appendErr != nil {
		return nil, appendErr
	}
	if crawlErr != nil {
		return nil, crawlErr
	}
	if ckpt != nil {
		if err := ckpt.Complete(); err != nil {
			return nil, err
		}
	}
	res := acc.Result(eco, profile)
	res.Stats.CaptureHighWater = int(g.High())
	return res, nil
}
