// Package browser simulates the browsers of §7.1: a cookie jar, referer
// emission, subresource fetching, and per-profile privacy policy —
// vanilla Chrome/Opera, Safari's ITP (third-party cookie blocking),
// Firefox's ETP (third-party cookie blocking for known trackers), and
// Brave's Shields (request blocking with CNAME uncloaking).
//
// The engine renders a site page by issuing the document request, a
// first-party asset, and each embedded tag's resource request; the
// crawler drives authentication events that make tags emit leak
// requests. Everything the browser lets through is appended to Records —
// the dataset §4's detection pipeline runs on.
//
// Every policy turns on one §4.1 split, whether a request is cross-site
// for its page, and the engine computes it once per request: each
// request's host comes from the place that built its URL (the page,
// the site or the tag), its registrable domain is resolved once, and
// Shields, the cookie policy and the referer policy share that one
// verdict. A page's host, registrable domain and origin come from its
// site, once per site, and no URL is parsed (DESIGN.md §17).
package browser

import (
	"context"
	"maps"
	"net/url"
	"slices"
	"strings"
	"sync"

	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/obs"
	"piileak/internal/pii"
	"piileak/internal/psl"
	"piileak/internal/site"
)

// Profile is a browser's privacy configuration.
type Profile struct {
	// Name and Version identify the browser (reporting only).
	Name    string
	Version string
	// BlockThirdPartyCookies stops cookies on cross-site requests
	// (Safari ITP; Brave).
	BlockThirdPartyCookies bool
	// ETPTrackerCookies stops cookies on cross-site requests to known
	// trackers only (Firefox ETP).
	ETPTrackerCookies bool
	// Shields holds registrable domains whose requests are blocked
	// outright (Brave). nil means no request blocking.
	Shields map[string]bool
	// UncloakCNAME applies Shields to the CNAME-resolved effective
	// party, not just the literal request host (Brave ≥ 1.25).
	UncloakCNAME bool
	// KnownTrackers backs ETPTrackerCookies.
	KnownTrackers map[string]bool
}

// Chrome93 returns the vanilla Chrome profile of §7.1.
func Chrome93() Profile { return Profile{Name: "Chrome", Version: "93"} }

// Opera79 returns the vanilla Opera profile.
func Opera79() Profile { return Profile{Name: "Opera", Version: "79.0"} }

// Safari14 returns Safari with ITP (default-on).
func Safari14() Profile {
	return Profile{Name: "Safari", Version: "14.03", BlockThirdPartyCookies: true}
}

// Firefox88 returns the study's vanilla collection profile (ETP off).
func Firefox88() Profile { return Profile{Name: "Firefox", Version: "88"} }

// Firefox88ETP returns Firefox with Enhanced Tracking Protection,
// restricting cookies for the given known-tracker domains.
func Firefox88ETP(knownTrackers map[string]bool) Profile {
	return Profile{
		Name: "Firefox", Version: "88+ETP",
		ETPTrackerCookies: true,
		KnownTrackers:     knownTrackers,
	}
}

// Brave129 returns Brave with Shields blocking the given registrable
// domains, including over CNAME cloaking.
func Brave129(shields map[string]bool) Profile {
	return Profile{
		Name: "Brave", Version: "1.29.81",
		BlockThirdPartyCookies: true,
		Shields:                shields,
		UncloakCNAME:           true,
	}
}

// Transport models the network path of a fetch. A nil Transport (the
// default) always succeeds instantly — the fault-free simulation. The
// crawler installs a resilient transport (retry + backoff + circuit
// breaker over injected faults); an error from Fetch means the request
// definitively failed after whatever retrying the transport did.
type Transport interface {
	Fetch(host string) error
}

// Browser is one browsing session: a profile plus cookie jar and the
// captured traffic.
type Browser struct {
	Profile    Profile
	Classifier *dnssim.Classifier

	// Ctx, when non-nil, cancels the fetch loop: once it is done every
	// request fails as an undelivered fetch, so a cancelled crawl's
	// flow degrades and finishes instead of issuing further traffic.
	// Reset does not clear it — cancellation outlives sessions.
	Ctx context.Context

	// Transport, when non-nil, gates every request on a (possibly
	// faulty) network path.
	Transport Transport

	// Obs, when non-nil, counts issued/blocked/failed requests. Like
	// Ctx, Reset does not clear it — the observer outlives sessions.
	Obs *obs.Run

	// Records is the captured traffic, in request order.
	Records []httpmodel.Record
	// Blocked counts requests the profile blocked, by receiver
	// registrable domain; nil until the session's first block.
	Blocked map[string]int
	// FailedFetches counts requests the transport failed to deliver
	// (after its internal retrying); those exchanges are not recorded.
	FailedFetches int

	jar map[string][]httpmodel.Cookie // cookie domain -> cookies
	seq int
	// page is the page the last request came from.
	page page
	// headers are empty header maps a handed-back capture's records
	// held, for this session's Referers (refererMap).
	headers []map[string]string
}

// page is what every request from one page needs: its URL, and its
// site's host, registrable domain, origin (the Referer a cross-site
// request gets) and first-party asset URL. Every page of a site is on
// the site's host, so only the URL changes from page to page.
type page struct {
	site                            *site.Site
	url, host, etld1, origin, asset string
	// urlRef and originRef are the Referer header maps carrying url and
	// origin, built on first use and shared, read-only, by every record
	// whose Referer has that value: nothing writes to them while a
	// record holds them (Recycle empties them once nobody does).
	urlRef, originRef map[string]string
}

// siteOn makes s the site of b's page. The site's part is derived once
// per site, from the site itself: its host, origin and asset URL are one
// allocation (site.PageStrings), and its registrable domain is its
// Domain, which the site model makes one, so no URL is parsed and no
// public-suffix list walked.
func (b *Browser) siteOn(s *site.Site) *page {
	pg := &b.page
	if pg.site != s {
		pg.site, pg.url, pg.etld1 = s, "", s.Domain
		pg.origin, pg.host, pg.asset = s.PageStrings()
		pg.urlRef, pg.originRef = nil, nil
	}
	return pg
}

// pageOn returns page pageURL of site s.
func (b *Browser) pageOn(s *site.Site, pageURL string) *page {
	pg := b.siteOn(s)
	if pg.url != pageURL {
		pg.url, pg.urlRef = pageURL, nil
	}
	return pg
}

// PageURL returns the URL of page path on site s, where path starts
// with "/": the site's origin itself for "/", otherwise the origin and
// path in one concatenation.
func (b *Browser) PageURL(s *site.Site, path string) string {
	pg := b.siteOn(s)
	if path == "/" {
		return pg.origin
	}
	return pg.origin[:len(pg.origin)-1] + path
}

// sharedReferer returns the page's shared Referer header map for value
// v, a subresource's Referer: the page's URL or its origin.
func (b *Browser) sharedReferer(pg *page, v string) map[string]string {
	ref := &pg.originRef
	if v == pg.url {
		ref = &pg.urlRef
	}
	if *ref == nil {
		*ref = b.refererMap(v)
	}
	return *ref
}

// refererMap returns a header map holding Referer v alone: one a
// handed-back capture left, when the session has one, or a new one.
func (b *Browser) refererMap(v string) map[string]string {
	var h map[string]string
	if n := len(b.headers); n > 0 {
		h, b.headers = b.headers[n-1], b.headers[:n-1]
	} else {
		h = make(map[string]string, 1)
	}
	h["Referer"] = v
	return h
}

// capture is what Recycle hands back for a later Reset: a record slice
// and the header maps its records held, emptied.
type capture struct {
	records []httpmodel.Record
	headers []map[string]string
}

// spent holds the captures Recycle hands back, and boxes the empty
// capture values Reset leaves: a capture put into a sync.Pool as a
// value would be boxed in a new allocation every time, and so would a
// new *capture per Put, so the boxes go round too.
var spent, boxes sync.Pool

// Recycle hands back a capture whose records nobody reads any more, so
// a later session's Reset reuses its capacity instead of regrowing a
// capture from empty, and its request header maps for the Referers of
// a later session's pages. A pipeline worker calls it once detection
// and the §7.2 reduction are done with a site, and its browser's next
// Reset, on the same goroutine, usually takes the capture back out; a
// caller that keeps its records (a dataset crawl) never calls it. Every
// request header map in a browser's records is the browser's own (do
// makes them all), so each is emptied and kept; one that several
// records share is kept once, as it is already empty when the next
// record is reached. The records are cleared over their length, which
// is all a session ever wrote, so they keep no request alive.
func Recycle(records []httpmodel.Record) {
	if cap(records) == 0 {
		return
	}
	c, _ := boxes.Get().(*capture)
	if c == nil {
		c = new(capture)
	}
	for i := range records {
		if h := records[i].Request.Headers; len(h) > 0 {
			clear(h)
			c.headers = append(c.headers, h)
		}
	}
	clear(records)
	c.records = records[:0]
	spent.Put(c)
}

// New creates a browsing session. zone supplies CNAME records for
// uncloaking; it may be nil when no cloaked tags exist.
func New(profile Profile, zone *dnssim.Zone) *Browser {
	if zone == nil {
		zone = dnssim.NewZone()
	}
	return &Browser{
		Profile:    profile,
		Classifier: dnssim.NewClassifier(zone),
		jar:        map[string][]httpmodel.Cookie{},
	}
}

// Reset clears cookies, captured traffic, the saved page and the
// transport (a fresh session on a fresh connection). The new capture
// is empty, in a recycled slice when one was handed back, whose
// emptied header maps join the session's spares.
func (b *Browser) Reset() {
	b.Records = nil
	if c, ok := spent.Get().(*capture); ok {
		// The capture's emptied header maps join the spares, and the
		// capture leaves with the spares' old array for its next use.
		b.Records = c.records
		b.headers, c.headers = append(c.headers, b.headers...), b.headers[:0]
		c.records = nil
		boxes.Put(c)
	}
	b.Blocked = nil
	b.FailedFetches = 0
	b.Transport = nil
	clear(b.jar)
	b.seq = 0
	b.page = page{}
}

// SetCookie stores a cookie in the jar.
func (b *Browser) SetCookie(c httpmodel.Cookie) {
	d := psl.Normalize(c.Domain)
	for i, old := range b.jar[d] {
		if old.Name == c.Name {
			b.jar[d][i] = c
			return
		}
	}
	b.jar[d] = append(b.jar[d], c)
}

// dropsCrossSiteCookie reports whether the profile keeps cookies off a
// cross-site exchange with a host whose registrable domain is e ("" when
// it has none).
func (p *Profile) dropsCrossSiteCookie(e string) bool {
	return p.BlockThirdPartyCookies || p.ETPTrackerCookies && e != "" && p.KnownTrackers[e]
}

// cookiesFor returns the cookies the profile allows on a request to
// host, whose registrable domain is e, given the request's third-party
// verdict.
func (b *Browser) cookiesFor(host, e string, thirdParty bool) []httpmodel.Cookie {
	if len(b.jar) == 0 || thirdParty && b.Profile.dropsCrossSiteCookie(e) {
		return nil
	}
	// Match domains first and walk them sorted: the jar is a map, and
	// when several domains cover the host the emitted cookie order
	// must not follow randomized map iteration. A host is covered by
	// at most a few domains, so they are gathered on the stack.
	var stack [4]string
	domains, n := stack[:0], 0
	for domain, cookies := range b.jar {
		if strings.HasSuffix(host, domain) && (len(host) == len(domain) || host[len(host)-len(domain)-1] == '.') {
			domains = append(domains, domain)
			n += len(cookies)
		}
	}
	if len(domains) == 0 {
		return nil
	}
	slices.Sort(domains)
	out := make([]httpmodel.Cookie, 0, n)
	for _, domain := range domains {
		out = append(out, b.jar[domain]...)
	}
	return out
}

// allowed applies Shields to a request to host, whose registrable
// domain is e: false means the request is blocked. The receiver is the
// registrable domain charged for the block.
func (b *Browser) allowed(host, e string) (receiver string, ok bool) {
	if b.Profile.Shields == nil {
		return "", true
	}
	party := host
	if b.Profile.UncloakCNAME {
		party = b.Classifier.EffectiveParty(host)
	} else if e != "" {
		party = e
	}
	if b.Profile.Shields[party] {
		return party, false
	}
	return "", true
}

// do issues one request from page pg to host, whose registrable domain
// is e ("" when it has none), both known to the caller from building the
// request's URL: it applies shields and cookie policy, attaches the
// Referer, records the exchange, and returns whether it went through.
// Shields, the cookie policy and the referer policy share the one
// third-party verdict. A subresource of a page on site s (s non-nil)
// gets its Referer from that verdict, as Firefox 88's default policy
// does: the full page URL same-site, the page's origin cross-site, in
// the page's shared header map for that value. A navigation (s nil)
// carries referer as given, when it is not empty, in a map of its own.
// resp is the server's answer, nil for a plain 200. The record is built
// in place, and every request header map it holds is one do made, so
// do never writes into a caller's map and Recycle may reuse them all.
func (b *Browser) do(req *httpmodel.Request, host, e string, pg *page, phase httpmodel.Phase, s *site.Site, referer string, resp *httpmodel.Response) bool {
	if receiver, ok := b.allowed(host, e); !ok {
		if b.Blocked == nil {
			b.Blocked = map[string]int{}
		}
		b.Blocked[receiver]++
		b.Obs.Count(obs.MetricBrowserBlocked, 1)
		return false
	}
	if b.Ctx != nil {
		// Receive from Done rather than call Err: a cancelable
		// context's Err takes the lock every crawl worker shares, and
		// this runs once per request.
		select {
		case <-b.Ctx.Done():
			// The run is cancelled: the request never leaves the
			// browser. It counts as a failed fetch, but the crawl
			// engine discards the in-flight site's entry anyway.
			b.FailedFetches++
			b.Obs.Count(obs.MetricFetchFailures, 1)
			return false
		default:
		}
	}
	if b.Transport != nil {
		if err := b.Transport.Fetch(host); err != nil {
			b.FailedFetches++
			b.Obs.Count(obs.MetricFetchFailures, 1)
			return false
		}
	}
	// A host or page without a registrable domain is never same-site.
	thirdParty := e == "" || e != pg.etld1
	if s != nil {
		referer = pg.origin
		if !thirdParty || s.SignupGET {
			// Badly-coded GET-form sites also ship
			// `Referrer-Policy: unsafe-url`, which is what makes their
			// accidental leak observable cross-origin (§4.1).
			referer = pg.url
		}
	}
	var headers map[string]string
	switch {
	case len(req.Headers) > 0:
		// The caller's header map is not do's to change, nor its
		// records' to share: they get a copy.
		headers = maps.Clone(req.Headers)
		if referer != "" {
			headers["Referer"] = referer
		}
	case s != nil:
		headers = b.sharedReferer(pg, referer)
	case referer != "":
		headers = b.refererMap(referer)
	}
	cookies := b.cookiesFor(host, e, thirdParty)
	if resp != nil {
		for _, c := range resp.SetCookies {
			if b.canSetCookie(c, pg) {
				b.SetCookie(c)
			}
		}
	}

	b.seq++
	b.Obs.Count(obs.MetricBrowserRequests, 1)
	n := len(b.Records)
	b.Records = slices.Grow(b.Records, 1)[:n+1]
	rec := &b.Records[n]
	rec.Seq, rec.Page, rec.Phase = b.seq, pg.url, phase
	rec.Request = *req
	rec.Request.Headers, rec.Request.Cookies = headers, cookies
	rec.Response = httpmodel.Response{}
	if resp != nil {
		rec.Response = *resp
	}
	if rec.Response.Status == 0 {
		rec.Response.Status = 200
	}
	return true
}

// tagDomain returns the registrable domain of tag t's host ("" when it
// has none): the one the generator stored (site.Tag.WithURL), or for a
// tag built without it, a public-suffix walk.
func (b *Browser) tagDomain(t *site.Tag) string {
	if e, ok := t.RegistrableDomain(); ok {
		return e
	}
	e, _ := b.Classifier.PSL.ETLDPlusOne(t.Host)
	return e
}

// canSetCookie applies the cookie policy to a Set-Cookie received on a
// request from page pg.
func (b *Browser) canSetCookie(c httpmodel.Cookie, pg *page) bool {
	e, _ := b.Classifier.PSL.ETLDPlusOne(c.Domain)
	return e != "" && e == pg.etld1 || !b.Profile.dropsCrossSiteCookie(e)
}

// VisitPage renders a page: the document request, one first-party asset,
// and every embedded tag's resource load. subpage selects the §5.2
// persistence context (only OnSubpages tags load). It reports whether
// the document itself arrived; when it did not (a transport failure),
// no subresources load and the caller's flow is broken at this step.
func (b *Browser) VisitPage(s *site.Site, pageURL string, phase httpmodel.Phase, subpage bool) bool {
	pg := b.pageOn(s, pageURL)
	if !b.do(&httpmodel.Request{
		Method: "GET", URL: pageURL, Type: httpmodel.TypeDocument,
	}, pg.host, pg.etld1, pg, phase, nil, "", nil) {
		return false
	}
	b.RenderSubresources(s, pageURL, phase, subpage)
	return true
}

// RenderSubresources loads a page's asset and tags without re-issuing
// the document request — used after form submissions, where the
// navigation request already happened. A subpage loads only the
// OnSubpages tags.
func (b *Browser) RenderSubresources(s *site.Site, pageURL string, phase httpmodel.Phase, subpage bool) {
	pg := b.pageOn(s, pageURL)
	b.do(&httpmodel.Request{
		Method: "GET", URL: pg.asset, Type: httpmodel.TypeScript, Initiator: pageURL,
	}, pg.host, pg.etld1, pg, phase, s, "", nil)

	for i := range s.Tags {
		tag := &s.Tags[i]
		if !tag.LoadsOn(subpage) {
			continue
		}
		req := tag.LoadRequest(pageURL)
		b.do(&req, tag.Host, b.tagDomain(tag), pg, phase, s, "", nil)
	}
}

// FireAuthEvent makes every action-bearing tag on the page (on a
// subpage, every OnSubpages one) emit its leak requests for an
// authentication event. Cookie-channel actions set their
// identifying cookie first, then issue the tag's beacon so the cookie
// travels. times > 1 repeats the emission (subpage view + interaction).
func (b *Browser) FireAuthEvent(s *site.Site, pageURL string, phase httpmodel.Phase, subpage bool, p pii.Persona, times int) {
	if times < 1 {
		times = 1
	}
	pg := b.pageOn(s, pageURL)
	for i := range s.Tags {
		tag := &s.Tags[i]
		if len(tag.Actions) == 0 || !tag.LoadsOn(subpage) {
			continue
		}
		e := b.tagDomain(tag)
		for rep := 0; rep < times; rep++ {
			for _, action := range tag.Actions {
				req, cookies := tag.LeakRequest(action, pageURL, p)
				for _, c := range cookies {
					// Identifying cookies are minted by script on
					// the (cloaked, first-party) tag host.
					b.SetCookie(c)
				}
				b.do(&req, tag.Host, e, pg, phase, s, "", nil)
			}
		}
	}
}

// SubmitForm issues the signup/signin form submission, to action on
// s's host, as a top-level navigation. It reports whether the
// submission reached the server — false means the transport failed the
// navigation after retrying.
func (b *Browser) SubmitForm(s *site.Site, action string, fields []site.FormField, phase httpmodel.Phase, fromPage string) bool {
	pg := b.pageOn(s, action)
	req := httpmodel.Request{Method: "POST", URL: action, Type: httpmodel.TypeDocument, Initiator: fromPage}
	if _, query, _ := strings.Cut(action, "?"); query != "" {
		// A GET form: fields ride in the URL.
		req.Method = "GET"
	} else {
		vals := url.Values{}
		for _, f := range fields {
			vals.Set(f.Name, f.Value)
		}
		req.Body = []byte(vals.Encode())
		req.BodyType = "application/x-www-form-urlencoded"
	}
	resp := httpmodel.Response{
		Status: 302,
		SetCookies: []httpmodel.Cookie{{
			Name: "session", Value: "sess-" + s.Domain, Domain: pg.host,
		}},
	}
	return b.do(&req, pg.host, pg.etld1, pg, phase, nil, fromPage, &resp)
}
