package browser_test

import (
	"context"
	"net/url"
	"strings"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/httpmodel"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// TestSitePageMatchesParsedURL is the differential pin for taking a
// page's host, registrable domain and origin from its site instead of
// parsing its URL. Over every page the §3.2 flow visits — the paper
// config, SmallConfig(7) and a strided sample of a 200k-site universe
// tail — the site-derived values must equal what parsing the page URL
// gives: url.Parse, the lower-cased Hostname, its ETLDPlusOne, and
// scheme://host/. Every document and first-party asset request must be
// on that host, and a form submission must be a GET exactly when its
// URL carries a query. A generated domain with an upper-case byte, or a
// page the crawler moves to another host, fails here.
func TestSitePageMatchesParsedURL(t *testing.T) {
	tail := webgen.DefaultConfig()
	tail.UniverseSize = 200_000
	for _, tc := range []struct {
		name   string
		cfg    webgen.Config
		stride int // > 1 samples the universe tail only
	}{
		{"default", webgen.DefaultConfig(), 1},
		{"small-7", webgen.SmallConfig(7), 1},
		{"tail-200k", tail, 211},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eco := webgen.MustGenerate(tc.cfg)
			u := eco.Universe()
			var sites site.Slice
			start := 0
			if tc.stride > 1 {
				start = len(eco.Sites)
			}
			for i := start; i < u.Len(); i += tc.stride {
				sites = append(sites, u.At(i))
			}
			ds, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{Source: sites})
			if err != nil {
				t.Fatal(err)
			}
			b := browser.New(browser.Firefox88(), eco.Zone)
			pages, forms := map[string]bool{}, 0
			for i, c := range ds.Crawls {
				s := sites[i]
				for _, r := range c.Records {
					host, etld1, origin := browser.SitePage(b, s, r.Page)
					pu, err := url.Parse(r.Page)
					if err != nil {
						t.Fatalf("%s: page %q does not parse: %v", s.Domain, r.Page, err)
					}
					wantHost := strings.ToLower(pu.Hostname())
					wantETLD1, _ := b.Classifier.PSL.ETLDPlusOne(wantHost)
					wantOrigin := pu.Scheme + "://" + pu.Host + "/"
					if host != wantHost || etld1 != wantETLD1 || origin != wantOrigin {
						t.Fatalf("%s page %s: site-derived (%q, %q, %q), parsed (%q, %q, %q)",
							s.Domain, r.Page, host, etld1, origin, wantHost, wantETLD1, wantOrigin)
					}
					pages[r.Page] = true
					req := &r.Request
					if req.Type == httpmodel.TypeDocument || strings.HasSuffix(req.URL, "/static/app.js") {
						if got := req.Host(); got != host {
							t.Fatalf("%s: first-party request %s is on host %q, its page's host is %q", s.Domain, req.URL, got, host)
						}
					}
					if req.Type == httpmodel.TypeDocument && req.Initiator != "" {
						forms++
						ru, err := url.Parse(req.URL)
						if err != nil {
							t.Fatalf("%s: form action %q does not parse: %v", s.Domain, req.URL, err)
						}
						if get := ru.RawQuery != ""; get != (req.Method == "GET") {
							t.Fatalf("%s: form action %s submitted by %s", s.Domain, req.URL, req.Method)
						}
					}
				}
			}
			if len(pages) < len(sites) || forms == 0 {
				t.Fatalf("%d sites crawled only %d distinct pages and %d form submissions", len(sites), len(pages), forms)
			}
			t.Logf("%d sites, %d distinct pages, %d form submissions", len(sites), len(pages), forms)
		})
	}
}
