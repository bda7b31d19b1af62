package crawler

import (
	"context"
	"sync"
	"sync/atomic"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/httpmodel"
	"piileak/internal/mailbox"
	"piileak/internal/obs"
	"piileak/internal/resilience"
	"piileak/internal/webgen"
)

// This file is the streaming crawl engine: one worker loop behind
// CrawlStream. Run collects its emissions into a Dataset; the streaming
// study pipeline instead scans, releases and folds each site inside its
// emit, on the worker that crawled it, so captures never pile up.

// SiteResult is one site's record from crawl to merge, and a checkpoint
// line: the crawl record with its mail and shield-block side effects,
// the site's index in its run's source (so consumers can assemble
// deterministic output whatever order sites finish in), and the request
// count before release. The study pipeline adds the leaks and, for a
// leaky site, the reduced requests §7.2 needs, and drops the records.
type SiteResult struct {
	Index    int                        `json:"index"`
	Crawl    SiteCrawl                  `json:"crawl"`
	Mail     []mailbox.Message          `json:"mail,omitempty"`
	Blocked  map[string]int             `json:"blocked,omitempty"`
	Records  int                        `json:"records,omitempty"`
	Leaks    []core.Leak                `json:"leaks,omitempty"`
	Requests []httpmodel.IndexedRequest `json:"requests,omitempty"`
}

// CrawlStream runs the crawl and hands each completed site to emit
// instead of assembling a Dataset. A pool of Workers workers (one when
// Workers <= 1), each with its own browser, takes the source's sites in
// index order: with one worker, emissions arrive in site order; with
// more, from the workers in completion order, so emit must be safe for
// concurrent use. emit runs on the worker that crawled the site, which
// takes its next site only once emit returns: at most Workers captures
// are ever in flight, and an emit error stops the crawl.
//
// Sites come from Options.Source (or the ecosystem's universe) and are
// materialized one at a time as a worker takes them, so peak site
// memory is the sites the workers hold, never the source's length; the
// count lands in the universe-materialized gauge. A nil site is skipped:
// a resuming caller, which owns the checkpoint, passes only the
// unfinished sites (Checkpoint.Unfinished).
//
// Cancellation is crash-only: cancelling ctx stops every worker before
// its next site with ctx's error, and the site mid-crawl is dropped,
// never emitted — a checkpoint holds only sites finished before it,
// which is what makes resume byte-identical.
func CrawlStream(ctx context.Context, eco *webgen.Ecosystem, profile browser.Profile, opts Options, emit func(SiteResult) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	src := opts.source(eco)
	o := opts.Obs

	n := src.Len()
	var cursor atomic.Int64 // the next site index to take
	defer func() { o.GaugeMax(obs.MetricUniverseMaterialized, min(cursor.Load(), int64(n))) }()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		stopped  atomic.Bool
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			stopped.Store(true)
		})
	}
	workers := max(1, min(opts.Workers, n))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := browser.New(profile, eco.Zone)
			b.Ctx = ctx
			b.Obs = o
			var r SiteResult // the site's record, built in place
			for !stopped.Load() {
				if err := cancelled(ctx); err != nil {
					fail(err)
					return
				}
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				s := src.At(i)
				if s == nil {
					continue
				}
				sp := o.StartSpan(obs.StageCrawl, s.Domain, i)
				rt := newFaultTransport(ctx, eco, opts)
				r = SiteResult{Index: i}
				crawlSite(b, eco, s, rt, opts.Quarantine, &r)
				if err := cancelled(ctx); err != nil {
					// Drop the in-flight site: only sites finished
					// before cancellation are emitted.
					fail(err)
					return
				}
				noteCrawledSite(o, sp, rt, &r)
				if err := emit(r); err != nil {
					fail(err)
					return
				}
				b.Reset()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// cancelled returns ctx's error once ctx is done, and nil until then.
// It receives from Done, a load once the channel exists, where Err
// would take the lock a cancelable context shares among every worker
// polling it.
func cancelled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// DatasetShell returns an empty dataset frame (persona, browser label,
// CNAME view) for assembling streamed site results into.
func DatasetShell(eco *webgen.Ecosystem, profile browser.Profile) *Dataset {
	return newDataset(eco, profile.Name+" "+profile.Version)
}

// appendSite appends one site's crawl record and side effects to the
// dataset. Callers must append results in site order for the dataset
// to match a serial crawl byte for byte.
func (d *Dataset) appendSite(r SiteResult) {
	d.Crawls = append(d.Crawls, r.Crawl)
	d.Mailbox.Messages = append(d.Mailbox.Messages, r.Mail...)
	for recv, n := range r.Blocked {
		d.Blocked[recv] += n
	}
}

// noteCrawledSite closes a site's crawl span and folds its outcome into
// the counters. rt's virtual clock, when the site ran under faults,
// supplies the span's deterministic simulated duration.
func noteCrawledSite(o *obs.Run, sp *obs.Span, rt *faultTransport, r *SiteResult) {
	if o == nil {
		return
	}
	if rt != nil {
		if vc, ok := rt.exec.Clock.(*resilience.VirtualClock); ok {
			elapsed := vc.Elapsed()
			sp.AddDuration(elapsed)
			o.Observe(obs.HistSiteVirtualMS, elapsed.Milliseconds())
		}
	}
	sp.SetN(r.Records)
	sp.SetOutcome(string(r.Crawl.Outcome))
	sp.End()
	if r.Crawl.Outcome == OutcomeCrashed {
		o.CountKind(obs.MetricQuarantined, StageCrawl, 1)
	}
	noteSiteCounters(o, r)
}

// noteSiteCounters folds one finished site into the crawl counters.
func noteSiteCounters(o *obs.Run, r *SiteResult) {
	o.Count(obs.MetricCrawlSites, 1)
	o.CountKind(obs.MetricCrawlOutcome, string(r.Crawl.Outcome), 1)
	o.Count(obs.MetricCrawlRecords, int64(r.Records))
	o.Observe(obs.HistSiteRecords, int64(r.Records))
	if r.Crawl.Outcome == OutcomeTimeout {
		o.Count(obs.MetricWatchdogTimeouts, 1)
	}
}
