// Package pipeline fuses the study's crawl and detection into one
// streaming pass. One pool of workers takes the sites; each worker
// crawls a site, scans its capture with a detect.Scanner it holds for
// that site, releases the records (keeping only the reduced request
// index the §7.2 blocklist evaluation needs, and handing the record
// slice back for its browser's next site), and then, under the one lock
// the workers share, appends the site to the checkpoint and folds it
// into the shared Result store — the §4.2 analysis indexes, the §5
// tracking index and the §6 policy-audit sender set — through the
// Accumulator the sharded merge also uses. No site crosses a goroutine,
// captured records are bounded by the workers instead of the whole
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
// A checkpointed run appends each site after detection, so its file
// holds exactly what the fold needs and a resumed site skips both the
// crawl and detection.
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

// Detector is what detection needs from a scanner. The one production
// implementation is *detect.Engine, from which Run derives one private
// Scanner per worker; tests substitute misbehaving detectors to
// exercise the crash-only path, and any detector but an Engine is
// shared by the workers, so it must be safe for concurrent use.
// DetectSite must not keep records once it returns: the worker then
// hands them back for reuse.
type Detector interface {
	DetectSite(siteDomain string, records []httpmodel.Record) []core.Leak
}

// Options configures a study run. The embedded crawler.Options is the
// single source of truth for the crawl — its Obs field is the run's
// observer, and its site-source / fault / checkpoint / watchdog knobs
// apply unchanged. Validate rejects contradictions instead of silently
// preferring one side.
type Options struct {
	crawler.Options

	// DetectWorkers and the embedded Workers size the one pool of
	// workers, each crawling, scanning and folding its own sites: the
	// pool has max(1, Workers, DetectWorkers) of them, so <= 1 for both
	// runs serially with one browser and one scanner.
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

// Event is one progress tick from a pipeline stage. A site's crawl
// and detect events arrive together, as its worker folds it.
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
	// simultaneously in flight — the pipeline's memory bound, at most
	// one per worker. It depends on scheduling in parallel runs, so it
	// stays out of the deterministic telemetry registry; only Run sets
	// it.
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
// the shared result store. Each of its max(1, Workers, DetectWorkers)
// workers takes a site through crawler.CrawlStream and, on the same
// goroutine, scans it, releases its records, and appends and folds it
// under one lock. Cancelling ctx stops every worker before its next
// site (a site mid-crawl is discarded, exactly as in
// crawler.CrawlStream; a crawled site is still scanned, appended and
// folded) before Run returns ctx's error, so a checkpointed run is left
// resumable. With CheckpointPath set, each site is appended before it
// is folded, and a resume folds the file's sites — counted in the
// progress events and telemetry like the rest — and crawls only the
// others; a failed append stops the crawl and fails the run, and a
// completed run completes the checkpoint, which seals a shard's
// (crawler.Checkpoint.Complete). A panicking detector does not kill the
// run: the site is marked OutcomeCrashed, quarantined
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

	// The fold owns the shared store, and mu serializes it with the
	// checkpoint appends and the progress calls: a site's count, its
	// two events and its fold are one lock hold, so events arrive in
	// count order however many workers race for the lock. The
	// accumulator keeps each site's output under its index, so the final
	// concatenation is in site order no matter when each site finished.
	var (
		mu   sync.Mutex
		done int
	)
	acc := NewAccumulator(total)
	fold := func(r *crawler.SiteResult) {
		done++
		if opts.Progress != nil {
			opts.Progress(Event{Stage: "crawl", Done: done, Total: total, Site: r.Crawl.Domain, Outcome: string(r.Crawl.Outcome)})
		}
		acc.Add(r)
		if r.Records > 0 {
			o.Count(obs.MetricReleased, 1)
		}
		o.Count(obs.MetricDetectSites, 1)
		o.Count(obs.MetricDetectLeaks, int64(len(r.Leaks)))
		o.Observe(obs.HistSiteLeaks, int64(len(r.Leaks)))
		if opts.Progress != nil {
			opts.Progress(Event{Stage: "detect", Done: done, Total: total, Site: r.Crawl.Domain, Leaks: acc.Leaks()})
		}
	}

	// The crawl walks the resolved source, so it and the accumulator
	// agree on the population; a resume hands it only the unfinished
	// sites.
	copts := opts.Options
	copts.Source = src
	copts.Workers = max(1, opts.Workers, opts.DetectWorkers)
	var ckpt *crawler.Checkpoint
	if opts.CheckpointPath != "" {
		var err error
		ckpt, err = crawler.OpenCheckpoint(eco, profile, copts, DetectPin(det), func(r crawler.SiteResult) { fold(&r) })
		if err != nil {
			return nil, err
		}
		defer ckpt.Close()
		copts.Source = ckpt.Unfinished(src)
	}

	// An Engine is shared compile-time state; each worker scans through
	// a Scanner of its own, taken from this free list of one per worker,
	// so the per-record scratch (match buffers, decode buffers, receiver
	// memo) is never contended.
	scanners := make(chan Detector, copts.Workers)
	for range copts.Workers {
		if eng, ok := det.(*detect.Engine); ok {
			scanners <- eng.NewScanner()
		} else {
			scanners <- det
		}
	}

	var (
		g      obs.Watermark
		failed error // the failed append; no site is appended after it
	)
	err := crawler.CrawlStream(ctx, eco, profile, copts, func(r crawler.SiteResult) error {
		g.Inc()
		sp := o.StartSpan(obs.StageDetect, r.Crawl.Domain, r.Index)
		if r.Crawl.Outcome == crawler.OutcomeSuccess {
			sc := <-scanners
			detectGuarded(sc, &r, eco, copts)
			scanners <- sc
		}
		if len(r.Leaks) > 0 {
			r.Requests = httpmodel.ReduceRecords(r.Crawl.Records)
		}
		// Nothing reads the records after this: hand them back for this
		// worker's browser to append its next site into.
		browser.Recycle(r.Crawl.Records)
		r.Crawl.Records = nil
		g.Dec()
		sp.SetN(len(r.Leaks))
		sp.End()

		mu.Lock()
		defer mu.Unlock()
		if failed != nil {
			return failed
		}
		if ckpt != nil {
			if failed = ckpt.Append(&r); failed != nil {
				return failed
			}
		}
		ap := o.StartSpan(obs.StageAccumulate, r.Crawl.Domain, r.Index)
		fold(&r)
		ap.SetN(len(r.Leaks))
		ap.End()
		return nil
	})
	if err != nil {
		return nil, err
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
