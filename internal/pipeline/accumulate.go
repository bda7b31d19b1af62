package pipeline

import (
	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/httpmodel"
	"piileak/internal/tracking"
	"piileak/internal/webgen"
)

// Accumulator is the study fold: it takes sites' outputs in any order
// and assembles the shared Result store in site order. The pipeline's
// accumulate stage and the sharded runtime's verified merge both fold
// through it, so an unsharded run and a merged one cannot drift apart.
//
// Every aggregate it feeds (the §4.2 analysis indexes, the §5 tracking
// index, the §7.2 request index) is a set, so the fold is independent
// of arrival order; only the leak list and the dataset depend on order,
// and those are assembled from per-site slots when Result is called.
type Accumulator struct {
	analysis *core.Accumulator
	tracking *tracking.Index
	requests *httpmodel.RequestIndex
	// sites are the per-site slots, by site index. A slot whose crawl
	// has no domain was never added: a partial merge leaves the sites of
	// its missing shards empty.
	sites        []crawler.SiteResult
	stats        Stats
	totalRecords int
}

// NewAccumulator returns an empty fold over a population of sites
// sites; every added site's Index must lie in [0, sites).
func NewAccumulator(sites int) *Accumulator {
	return &Accumulator{
		analysis: core.NewAccumulator(),
		tracking: tracking.NewIndex(),
		requests: httpmodel.NewRequestIndex(),
		sites:    make([]crawler.SiteResult, sites),
	}
}

// Add folds one site after detection: its records released, its leaks
// and reduced requests set. Sites may arrive in any order, each at most
// once.
func (a *Accumulator) Add(r crawler.SiteResult) {
	a.sites[r.Index] = r
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
// order over the added sites, and the aggregates' finalized views.
func (a *Accumulator) Result(eco *webgen.Ecosystem, profile browser.Profile) *Result {
	ds := crawler.DatasetShell(eco, profile)
	var leaks []core.Leak
	for i := range a.sites {
		if a.sites[i].Crawl.Domain == "" {
			continue
		}
		ds.Merge(a.sites[i])
		leaks = append(leaks, a.sites[i].Leaks...)
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
