package pipeline

import (
	"cmp"
	"slices"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/httpmodel"
	"piileak/internal/mailbox"
	"piileak/internal/tracking"
	"piileak/internal/webgen"
)

// Accumulator is the study fold: it takes sites' outputs in any order
// and assembles the shared Result store in site order. The pipeline's
// workers, under one lock, and the sharded runtime's verified merge
// both fold through it, so an unsharded run and a merged one cannot
// drift apart.
//
// Every aggregate it feeds (the §4.2 analysis indexes, the §5 tracking
// index, the §7.2 request index, the shield block counters) is a set or
// a sum, so the fold is independent of arrival order. Only the leak
// list, the mailbox and the dataset's crawls depend on order: each
// crawl lands at its site index in one column, and the leaks and mail
// of the few sites that have any are kept by site index and
// concatenated in site order when Result is called. A site that
// reports nothing — a universe tail site — costs its crawl alone.
type Accumulator struct {
	analysis *core.Accumulator
	tracking *tracking.Index
	requests *httpmodel.RequestIndex
	// crawls is the crawl column, by site index. A crawl with no domain
	// was never added: a partial merge leaves the sites of its missing
	// shards empty.
	crawls       []crawler.SiteCrawl
	reports      []report
	blocked      map[string]int
	stats        Stats
	totalRecords int
}

// report is what a site leaves beside its crawl and the aggregates: its
// leaks and mail, kept for the sites that have either.
type report struct {
	index int
	leaks []core.Leak
	mail  []mailbox.Message
}

// NewAccumulator returns an empty fold over a population of sites
// sites; every added site's Index must lie in [0, sites).
func NewAccumulator(sites int) *Accumulator {
	return &Accumulator{
		analysis: core.NewAccumulator(),
		tracking: tracking.NewIndex(),
		requests: httpmodel.NewRequestIndex(),
		crawls:   make([]crawler.SiteCrawl, sites),
		blocked:  map[string]int{},
	}
}

// Add folds one site after detection: its records released, its leaks
// and reduced requests set. Sites may arrive in any order, each at most
// once. The fold keeps r's crawl, leaks, mail and requests, not r.
func (a *Accumulator) Add(r *crawler.SiteResult) {
	a.crawls[r.Index] = r.Crawl
	if len(r.Leaks) > 0 || len(r.Mail) > 0 {
		a.reports = append(a.reports, report{r.Index, r.Leaks, r.Mail})
	}
	for recv, n := range r.Blocked {
		a.blocked[recv] += n
	}
	for j := range r.Leaks {
		l := &r.Leaks[j]
		a.analysis.Add(l)
		a.tracking.Add(l)
	}
	if r.Requests != nil {
		a.requests.AddReduced(r.Crawl.Domain, r.Requests)
	}
	if r.Crawl.Outcome == crawler.OutcomeSuccess {
		a.analysis.AddSites(1)
		a.stats.Successes++
	}
	if r.Records > 0 {
		a.stats.Released++
	}
	a.totalRecords += r.Records
	a.stats.Sites++
	a.stats.Leaks += len(r.Leaks)
}

// Leaks reports how many leaks have been folded so far.
func (a *Accumulator) Leaks() int { return a.stats.Leaks }

// Result assembles the store: the leak list and the dataset in site
// order over the added sites, and the aggregates' finalized views. The
// dataset takes over the crawl column, so Result is called once, when
// the fold is done.
func (a *Accumulator) Result(eco *webgen.Ecosystem, profile browser.Profile) *Result {
	ds := crawler.DatasetShell(eco, profile)
	ds.Blocked = a.blocked
	switch {
	case a.stats.Sites == 0:
		// ds.Crawls stays nil, as a dataset of no sites writes it.
	case a.stats.Sites == len(a.crawls):
		ds.Crawls = a.crawls
	default:
		ds.Crawls = slices.DeleteFunc(a.crawls, func(c crawler.SiteCrawl) bool { return c.Domain == "" })
	}
	slices.SortFunc(a.reports, func(x, y report) int { return cmp.Compare(x.index, y.index) })
	var leaks []core.Leak
	for _, r := range a.reports {
		leaks = append(leaks, r.leaks...)
		ds.Mailbox.Messages = append(ds.Mailbox.Messages, r.mail...)
	}
	return &Result{
		Leaks:        leaks,
		Analysis:     a.analysis.Finalize(leaks),
		Tracking:     a.tracking,
		Senders:      a.analysis.SenderSet(),
		Requests:     a.requests,
		Dataset:      ds,
		TotalRecords: a.totalRecords,
		Stats:        a.stats,
	}
}
