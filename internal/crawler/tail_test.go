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
			crawlSite(br, eco, s, nil, nil)
			br.Reset()
		}
	}
}

// TestCrawlTailSiteAllocs bounds the allocations of one fault-free tail
// site crawl, at the counts measured with each page's host, registrable
// domain and origin taken from its site once per site, one PSL walk per
// third-party request, a cookie jar cleared in place, a request's
// cookie domains gathered on the stack, no block map until a site's
// first block, no filtered copy of a site's tags per subpage and each
// tag's URL built once when it is generated: 7 for the no-auth site's
// two requests and 111 for the shopping site's full flow, when the
// crawl keeps its records (a dataset crawl). When the records are
// handed back as the pipeline's workers do, the next session appends
// into them instead of regrowing a capture from empty: 6 and 106.
// Per-request or per-site garbage creeping back into the browser fails
// here before it shows in a universe run.
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
		{"kept", false, []float64{7, 111}},
		{"handed back", true, []float64{6, 106}},
	} {
		for i, bound := range tc.bounds {
			s := sites[i]
			allocs := testing.AllocsPerRun(50, func() {
				r := crawlSite(br, eco, s, nil, nil)
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
