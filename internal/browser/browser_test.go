package browser

import (
	"net/url"
	"slices"
	"strings"
	"testing"

	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/site"
)

func leakySite() *site.Site {
	return &site.Site{
		Domain:    "urbanmarket.com",
		Collected: []pii.Type{pii.TypeEmail, pii.TypeName},
		Tags: []site.Tag{
			{
				Receiver: "facebook.com", Host: "www.facebook.com",
				Path: "/en_US/fbevents.js", Type: httpmodel.TypeScript, OnSubpages: true,
				Actions: []site.LeakAction{{
					Method: httpmodel.SurfaceURI, Param: "udff[em]",
					Chain: []string{"sha256"}, PII: []pii.Type{pii.TypeEmail},
				}},
			},
			{
				Receiver: "jscdn-static.net", Host: "cdn.jscdn-static.net",
				Path: "/lib/app.js", Type: httpmodel.TypeScript, OnSubpages: true,
			},
		},
	}
}

// doFrom issues req from the page at the literal URL pageURL, whose
// host, registrable domain and origin come from parsing it: the tests
// of single requests have a page URL but no site.
func doFrom(b *Browser, req httpmodel.Request, pageURL string, phase httpmodel.Phase, referer string, resp httpmodel.Response) bool {
	pg := &page{url: pageURL}
	if u, err := url.Parse(pageURL); err == nil {
		pg.host = strings.ToLower(u.Hostname())
		pg.etld1, _ = b.Classifier.PSL.ETLDPlusOne(pg.host)
		pg.origin = u.Scheme + "://" + u.Host + "/"
	}
	host := req.Host()
	e, _ := b.Classifier.PSL.ETLDPlusOne(host)
	return b.do(&req, host, e, pg, phase, nil, referer, &resp)
}

func TestVisitPageRecordsDocumentAssetAndTags(t *testing.T) {
	b := New(Firefox88(), nil)
	s := leakySite()
	b.VisitPage(s, s.BaseURL(), httpmodel.PhaseHomepage, false)
	if len(b.Records) != 4 { // document + asset + 2 tags
		t.Fatalf("records = %d, want 4", len(b.Records))
	}
	if b.Records[0].Request.Type != httpmodel.TypeDocument {
		t.Error("first record is not the document")
	}
	for _, r := range b.Records[1:] {
		if r.Request.Headers["Referer"] == "" {
			t.Errorf("subresource %s missing referer", r.Request.URL)
		}
	}
}

// TestSubpageOnlyLoadsPersistentTags: an auth page loads every tag and
// a subpage only the OnSubpages ones, and a subpage's auth event fires
// no tag that is absent there.
func TestSubpageOnlyLoadsPersistentTags(t *testing.T) {
	s := leakySite()
	s.Tags[1].OnSubpages = false
	tagHosts := func(subpage bool) []string {
		b := New(Firefox88(), nil)
		b.VisitPage(s, s.PageURL("/product/1"), httpmodel.PhaseSubpage, subpage)
		var hosts []string
		for _, r := range b.Records[2:] { // after the document and its asset
			hosts = append(hosts, r.Request.Host())
		}
		return hosts
	}
	if got, want := tagHosts(false), []string{"www.facebook.com", "cdn.jscdn-static.net"}; !slices.Equal(got, want) {
		t.Errorf("auth page loaded tags from %v, want %v", got, want)
	}
	if got, want := tagHosts(true), []string{"www.facebook.com"}; !slices.Equal(got, want) {
		t.Errorf("subpage loaded tags from %v, want %v", got, want)
	}

	s.Tags[0].OnSubpages = false
	b := New(Firefox88(), nil)
	b.FireAuthEvent(s, s.PageURL("/product/1"), httpmodel.PhaseSubpage, true, pii.Default(), 1)
	if len(b.Records) != 0 {
		t.Errorf("a subpage auth event fired %d requests from tags absent there", len(b.Records))
	}
}

func TestFireAuthEventEmitsLeak(t *testing.T) {
	b := New(Firefox88(), nil)
	s := leakySite()
	p := pii.Default()
	b.FireAuthEvent(s, s.BaseURL(), httpmodel.PhaseSignup, false, p, 1)
	if len(b.Records) != 1 {
		t.Fatalf("records = %d, want 1 leak", len(b.Records))
	}
	want := string(pii.MustApplyChain(p.Email, []string{"sha256"}))
	if !strings.Contains(b.Records[0].Request.URL, want) {
		t.Error("leak request does not carry the hashed email")
	}
	// times=2 doubles the emission.
	b.Reset()
	b.FireAuthEvent(s, s.BaseURL(), httpmodel.PhaseSubpage, false, p, 2)
	if len(b.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(b.Records))
	}
}

func TestBraveShieldsBlockReceiver(t *testing.T) {
	shields := map[string]bool{"facebook.com": true}
	b := New(Brave129(shields), nil)
	s := leakySite()
	b.VisitPage(s, s.BaseURL(), httpmodel.PhaseHomepage, false)
	for _, r := range b.Records {
		if strings.Contains(r.Request.URL, "facebook") {
			t.Error("shielded request went through")
		}
	}
	if b.Blocked["facebook.com"] == 0 {
		t.Error("block not counted")
	}
	// The benign CDN is not shielded.
	found := false
	for _, r := range b.Records {
		if strings.Contains(r.Request.URL, "jscdn-static") {
			found = true
		}
	}
	if !found {
		t.Error("unshielded tag was blocked")
	}
}

func TestBraveUncloaksCNAME(t *testing.T) {
	zone := dnssim.NewZone()
	zone.AddCNAME("smetrics.urbanmarket.com", "urbanmarket.sc.omtrdc.net")
	shields := map[string]bool{"omtrdc.net": true}
	b := New(Brave129(shields), zone)

	req := httpmodel.Request{Method: "GET", URL: "https://smetrics.urbanmarket.com/b/ss/pageview", Type: httpmodel.TypeImage}
	ok := doFrom(b, req, "https://www.urbanmarket.com/", httpmodel.PhaseReload, "", httpmodel.Response{})
	if ok {
		t.Error("cloaked request passed Brave shields")
	}
	if b.Blocked["omtrdc.net"] == 0 {
		t.Error("uncloaked block not attributed to omtrdc.net")
	}

	// A non-uncloaking profile with the same shields lets it through.
	p := Brave129(shields)
	p.UncloakCNAME = false
	b2 := New(p, zone)
	if ok := doFrom(b2, req, "https://www.urbanmarket.com/", httpmodel.PhaseReload, "", httpmodel.Response{}); !ok {
		t.Error("shields matched a first-party host without uncloaking")
	}
}

func TestThirdPartyCookiePolicy(t *testing.T) {
	tpCookie := httpmodel.Cookie{Name: "uid", Value: "x", Domain: "tracker.net"}
	req := httpmodel.Request{Method: "GET", URL: "https://pixel.tracker.net/p", Type: httpmodel.TypeImage}
	page := "https://www.shop.com/"

	for _, tc := range []struct {
		name    string
		profile Profile
		want    int // cookies attached
	}{
		{"vanilla chrome sends", Chrome93(), 1},
		{"safari ITP strips", Safari14(), 0},
		{"firefox vanilla sends", Firefox88(), 1},
		{"firefox ETP strips known tracker", Firefox88ETP(map[string]bool{"tracker.net": true}), 0},
		{"firefox ETP keeps unknown", Firefox88ETP(map[string]bool{"other.net": true}), 1},
	} {
		b := New(tc.profile, nil)
		b.SetCookie(tpCookie)
		doFrom(b, req, page, httpmodel.PhaseHomepage, "", httpmodel.Response{})
		got := len(b.Records[0].Request.Cookies)
		if got != tc.want {
			t.Errorf("%s: %d cookies attached, want %d", tc.name, got, tc.want)
		}
	}
}

func TestFirstPartyCookiesAlwaysSent(t *testing.T) {
	// The cloaked-cookie channel: a first-party subdomain cookie is
	// attached even under ITP/Brave (what makes CNAME cloaking work).
	c := httpmodel.Cookie{Name: "s_ecid", Value: "hash", Domain: "smetrics.shop.com"}
	req := httpmodel.Request{Method: "GET", URL: "https://smetrics.shop.com/b/ss/pv", Type: httpmodel.TypeImage}
	for _, profile := range []Profile{Chrome93(), Safari14(), Firefox88ETP(map[string]bool{"omtrdc.net": true})} {
		b := New(profile, nil)
		b.SetCookie(c)
		doFrom(b, req, "https://www.shop.com/", httpmodel.PhaseReload, "", httpmodel.Response{})
		if len(b.Records[0].Request.Cookies) != 1 {
			t.Errorf("%s: first-party cookie stripped", profile.Name)
		}
	}
}

func TestSetCookieRespectsPolicy(t *testing.T) {
	resp := httpmodel.Response{SetCookies: []httpmodel.Cookie{{Name: "tid", Value: "1", Domain: "tracker.net"}}}
	req := httpmodel.Request{Method: "GET", URL: "https://pixel.tracker.net/p", Type: httpmodel.TypeImage}

	b := New(Safari14(), nil)
	doFrom(b, req, "https://www.shop.com/", httpmodel.PhaseHomepage, "", resp)
	doFrom(b, req, "https://www.shop.com/", httpmodel.PhaseHomepage, "", httpmodel.Response{})
	if len(b.Records[1].Request.Cookies) != 0 {
		t.Error("ITP stored a third-party cookie")
	}

	b2 := New(Chrome93(), nil)
	doFrom(b2, req, "https://www.shop.com/", httpmodel.PhaseHomepage, "", resp)
	doFrom(b2, req, "https://www.shop.com/", httpmodel.PhaseHomepage, "", httpmodel.Response{})
	if len(b2.Records[1].Request.Cookies) != 1 {
		t.Error("Chrome dropped a storable cookie")
	}
}

func TestRefererPolicyCrossOrigin(t *testing.T) {
	// Default policy: cross-origin subresources see only the origin.
	s := leakySite()
	pageWithQuery := s.PageURL("/account/signup?email=secret%40x.com")
	referers := func() map[string]string {
		b := New(Firefox88(), nil)
		b.RenderSubresources(s, pageWithQuery, httpmodel.PhaseSignup, false)
		out := map[string]string{}
		for _, r := range b.Records {
			out[r.Request.Host()] = r.Request.Referer()
		}
		return out
	}
	got := referers()
	if want := "https://" + s.Host() + "/"; got["www.facebook.com"] != want {
		t.Errorf("cross-origin referer = %q, want the origin %q", got["www.facebook.com"], want)
	}
	// Same-origin gets the full URL.
	if got[s.Host()] != pageWithQuery {
		t.Errorf("same-origin referer trimmed: %q", got[s.Host()])
	}
	// GET-form (unsafe-url) sites leak cross-origin.
	s.SignupGET = true
	if got := referers(); got["www.facebook.com"] != pageWithQuery {
		t.Errorf("unsafe-url referer trimmed: %q", got["www.facebook.com"])
	}
}

func TestSubmitFormGETvsPOST(t *testing.T) {
	b := New(Firefox88(), nil)
	s := leakySite()
	p := pii.Default()

	action := s.SignupActionURL(p) // POST form
	b.SubmitForm(s, action, s.FormFields(p), httpmodel.PhaseSignup, s.BaseURL())
	if b.Records[0].Request.Method != "POST" || len(b.Records[0].Request.Body) == 0 {
		t.Errorf("POST form submission wrong: %+v", b.Records[0].Request)
	}

	s.SignupGET = true
	b.Reset()
	action = s.SignupActionURL(p)
	b.SubmitForm(s, action, s.FormFields(p), httpmodel.PhaseSignup, s.BaseURL())
	if b.Records[0].Request.Method != "GET" {
		t.Error("GET form submitted as POST")
	}
	if !strings.Contains(b.Records[0].Request.URL, "email=") {
		t.Error("GET form URL lacks fields")
	}
	// The session cookie was stored.
	doFrom(b, httpmodel.Request{Method: "GET", URL: s.BaseURL(), Type: httpmodel.TypeDocument},
		s.BaseURL(), httpmodel.PhaseReload, "", httpmodel.Response{})
	if len(b.Records[1].Request.Cookies) == 0 {
		t.Error("session cookie not persisted")
	}
}

func TestResetClearsState(t *testing.T) {
	b := New(Chrome93(), nil)
	b.SetCookie(httpmodel.Cookie{Name: "x", Value: "1", Domain: "a.com"})
	doFrom(b, httpmodel.Request{Method: "GET", URL: "https://a.com/"}, "https://a.com/", httpmodel.PhaseHomepage, "", httpmodel.Response{})
	b.Reset()
	if len(b.Records) != 0 || len(b.Blocked) != 0 {
		t.Error("Reset left records")
	}
	doFrom(b, httpmodel.Request{Method: "GET", URL: "https://a.com/"}, "https://a.com/", httpmodel.PhaseHomepage, "", httpmodel.Response{})
	if len(b.Records[0].Request.Cookies) != 0 {
		t.Error("Reset left cookies")
	}
}
