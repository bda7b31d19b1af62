package crawler

import (
	"context"
	"sync"
	"sync/atomic"

	"piileak/internal/browser"
	"piileak/internal/mailbox"
	"piileak/internal/obs"
	"piileak/internal/resilience"
	"piileak/internal/webgen"
)

// This file is the streaming crawl engine: one worker loop behind
// CrawlStream. Run collects its emissions into a Dataset; the streaming
// study pipeline instead forwards each emission straight into detection
// so captures never pile up.

// SiteResult is one completed site crawl as emitted by CrawlStream: the
// crawl record plus the mail and shield-block side effects that must
// travel with it, and the site's index in the crawl order so downstream
// consumers can reassemble deterministic output regardless of the order
// completions arrive in.
type SiteResult struct {
	Index   int
	Crawl   SiteCrawl
	Mail    []mailbox.Message
	Blocked map[string]int
}

// CrawlStream runs the crawl and hands each completed site to emit
// instead of assembling a Dataset. With Workers <= 1 the crawl is
// serial and emissions arrive in site order; with more workers, emit is
// called from the worker goroutines in completion order and must be
// safe for concurrent use. A blocking emit exerts backpressure: the
// worker holds its finished site until emit returns, so a bounded
// consumer bounds the number of captures in flight. An emit error stops
// the crawl. With CheckpointPath set, every finished site is appended
// to the checkpoint; under Resume, sites already in it are emitted
// without re-crawling, by the workers, as the crawl reaches them.
// Cancelling ctx stops the crawl with ctx's error; the site in flight at
// that moment is discarded, never checkpointed or emitted.
//
// The site population comes from Options.Source (or the ecosystem's
// universe): sites are materialized one at a time as the crawl reaches
// them, so a lazy source is never held in memory whole.
func CrawlStream(ctx context.Context, eco *webgen.Ecosystem, profile browser.Profile, opts Options, emit func(SiteResult) error) error {
	return streamCrawl(ctx, eco, profile, opts, func(i int, e crawlEntry) error {
		return emit(SiteResult{Index: i, Crawl: e.Crawl, Mail: e.Mail, Blocked: e.Blocked})
	})
}

// DatasetShell returns an empty dataset frame (persona, browser label,
// CNAME view) for assembling streamed site results into.
func DatasetShell(eco *webgen.Ecosystem, profile browser.Profile) *Dataset {
	return newDataset(eco, profile.Name+" "+profile.Version)
}

// Merge appends one streamed site result to the dataset. Callers must
// merge results in site order for the dataset to match a serial crawl
// byte for byte.
func (d *Dataset) Merge(r SiteResult) {
	d.merge(crawlEntry{Crawl: r.Crawl, Mail: r.Mail, Blocked: r.Blocked})
}

// streamCrawl is the engine: a pool of opts.Workers workers (one when
// Workers <= 1), each with its own browser, takes the source's sites in
// index order from a shared cursor. A site already in the checkpoint is
// emitted without crawling by the worker that takes it, so only workers
// call emit. With one worker the emissions arrive in site order; with
// more, in completion order and concurrently.
//
// A worker materializes exactly the site it takes, so peak site memory
// is the sites held by the workers, never the source's length. The
// materialization count lands in the universe-materialized gauge: for a
// shard worker over a lazy universe it reads the shard's size.
//
// Cancellation is crash-only: a done ctx stops every worker before its
// next site, and a site mid-crawl when cancellation lands is dropped on
// the floor — the checkpoint then holds exactly a prefix of the
// uninterrupted run, which is what makes resume byte-identical.
func streamCrawl(ctx context.Context, eco *webgen.Ecosystem, profile browser.Profile, opts Options, emit func(int, crawlEntry) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	src := opts.source(eco)
	inj := injectorFor(eco, opts)
	o := opts.Obs

	var ckpt *Checkpoint
	if opts.CheckpointPath != "" {
		var err error
		ckpt, err = OpenCheckpoint(opts.CheckpointPath, eco, profile, opts.Resume, opts.ShardLabel())
		if err != nil {
			return err
		}
		defer ckpt.Close()
		if opts.Resume {
			o.Count(obs.MetricCheckpointTorn, int64(ckpt.TornRecords()))
			if opts.OnResume != nil {
				opts.OnResume(ResumeSummary{Completed: ckpt.Done(), TornRecords: ckpt.TornRecords()})
			}
		}
	}

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
			for !stopped.Load() {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				s := src.At(i)
				if e, ok := ckpt.lookup(s.Domain); ok {
					noteResumedSite(o, &e)
					if err := emit(i, e); err != nil {
						fail(err)
						return
					}
					continue
				}
				sp := o.StartSpan(obs.StageCrawl, s.Domain, i)
				rt := newFaultTransport(ctx, eco, inj, opts)
				e := crawlEntryFor(b, eco, s, rt, opts.Quarantine)
				if err := ctx.Err(); err != nil {
					// Drop the in-flight entry; the checkpoint keeps
					// only sites finished before cancellation.
					fail(err)
					return
				}
				if ckpt != nil {
					if err := ckpt.Append(e); err != nil {
						fail(err)
						return
					}
					o.Count(obs.MetricCheckpointAppends, 1)
				}
				noteCrawledSite(o, sp, rt, &e)
				if err := emit(i, e); err != nil {
					fail(err)
					return
				}
				b.Reset()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if ckpt != nil {
		return ckpt.Close()
	}
	return nil
}

// noteCrawledSite closes a site's crawl span and folds its outcome into
// the counters. rt's virtual clock, when the site ran under faults,
// supplies the span's deterministic simulated duration.
func noteCrawledSite(o *obs.Run, sp *obs.Span, rt *faultTransport, e *crawlEntry) {
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
	sp.SetN(len(e.Crawl.Records))
	sp.SetOutcome(string(e.Crawl.Outcome))
	sp.End()
	noteSiteCounters(o, e)
}

// noteResumedSite counts a checkpoint-loaded site: it contributes to
// the run's totals like any other, plus the resumed-sites counter. No
// span — the work happened in a previous process.
func noteResumedSite(o *obs.Run, e *crawlEntry) {
	if o == nil {
		return
	}
	o.Count(obs.MetricCheckpointResumed, 1)
	noteSiteCounters(o, e)
}

// noteSiteCounters folds one finished site into the crawl counters.
func noteSiteCounters(o *obs.Run, e *crawlEntry) {
	o.Count(obs.MetricCrawlSites, 1)
	o.CountKind(obs.MetricCrawlOutcome, string(e.Crawl.Outcome), 1)
	o.Count(obs.MetricCrawlRecords, int64(len(e.Crawl.Records)))
	o.Observe(obs.HistSiteRecords, int64(len(e.Crawl.Records)))
	switch e.Crawl.Outcome {
	case OutcomeTimeout:
		o.Count(obs.MetricWatchdogTimeouts, 1)
	case OutcomeCrashed:
		o.CountKind(obs.MetricQuarantined, StageCrawl, 1)
	}
}
