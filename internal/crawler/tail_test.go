package crawler

import (
	"testing"

	"piileak/internal/browser"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// tailSites returns the first no-auth site and the first shopping site
// of a universe tail: the two kinds of site a large universe crawl
// spends its time on.
func tailSites(tb testing.TB) (*webgen.Ecosystem, []*site.Site) {
	tb.Helper()
	cfg := webgen.SmallConfig(2021)
	cfg.UniverseSize = 1000
	eco := webgen.MustGenerate(cfg)
	u := eco.Universe()
	var noAuth, shop *site.Site
	for i := len(eco.Sites); i < u.Len() && (noAuth == nil || shop == nil); i++ {
		switch s := u.At(i); {
		case s.Obstacle == site.ObstacleNoAuth && noAuth == nil:
			noAuth = s
		case s.Obstacle != site.ObstacleNoAuth && shop == nil:
			shop = s
		}
	}
	if noAuth == nil || shop == nil {
		tb.Fatal("the universe tail lacks a no-auth or a shopping site")
	}
	return eco, []*site.Site{noAuth, shop}
}

// BenchmarkCrawlTailSite times the fault-free crawl of one no-auth and
// one shopping tail site on a reused Browser, as a crawl worker runs
// them.
func BenchmarkCrawlTailSite(b *testing.B) {
	eco, sites := tailSites(b)
	br := browser.New(browser.Firefox88(), eco.Zone)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sites {
			var r SiteResult
			crawlSite(br, eco, s, nil, nil, &r)
			br.Reset()
		}
	}
}

// TestCrawlTailSiteAllocs bounds the allocations of one fault-free tail
// site crawl, at the counts measured with each page's host, origin and
// asset URL derived from its site in one allocation per site and its
// registrable domain taken from the site's domain, each tag's URL and
// registrable domain stored when it is generated, a page's Referer
// header maps shared by its requests, every page URL the origin plus a
// path in one concatenation, each record built in place, a cookie jar
// cleared in place, a request's cookie domains gathered on the stack,
// no block map until a site's first block and no filtered copy of a
// site's tags per subpage: 5 for the no-auth site's two requests and 80
// for the shopping site's full flow, when the crawl keeps its records
// (a dataset crawl). When the records are handed back as the pipeline's
// workers do, the next session appends into them instead of regrowing a
// capture from empty, its Referers go into the emptied header maps of
// the capture handed back, and the pool's boxes go round with them: 1
// (the site's page strings) and 56. Per-request or per-site garbage
// creeping back into the browser fails here before it shows in a
// universe run.
func TestCrawlTailSiteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	eco, sites := tailSites(t)
	br := browser.New(browser.Firefox88(), eco.Zone)
	for _, tc := range []struct {
		name    string
		recycle bool
		bounds  []float64
	}{
		{"kept", false, []float64{5, 80}},
		{"handed back", true, []float64{1, 56}},
	} {
		for i, bound := range tc.bounds {
			s := sites[i]
			allocs := testing.AllocsPerRun(50, func() {
				var r SiteResult
				crawlSite(br, eco, s, nil, nil, &r)
				if tc.recycle {
					browser.Recycle(r.Crawl.Records)
				}
				br.Reset()
			})
			if allocs > bound {
				t.Errorf("%s, records %s: %.0f allocs per crawl, bound %.0f", s.Domain, tc.name, allocs, bound)
			}
		}
	}
}
