// Package crawler orchestrates the §3.2 data acquisition flow against
// the synthetic ecosystem, exactly as the paper's operator did by hand:
// visit the homepage, fill and submit the sign-up form, follow the
// e-mailed confirmation link when required, sign in, reload the
// logged-in page, and click through to a product subpage — recording
// every HTTP request, response and cookie along the way.
package crawler

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"piileak/internal/browser"
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/mailbox"
	"piileak/internal/pii"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// Outcome summarizes one site's crawl result for the funnel accounting.
type Outcome string

// Crawl outcomes (§3.2's funnel).
const (
	OutcomeSuccess       Outcome = "success"
	OutcomeUnreachable   Outcome = "unreachable"
	OutcomeNoAuthFlow    Outcome = "no_auth_flow"
	OutcomeSignupBlocked Outcome = "signup_blocked"  // phone / ID / region policies
	OutcomeCaptcha       Outcome = "captcha_blocked" // Brave shields broke the CAPTCHA
	// OutcomePartial marks a crawl the resilient runtime abandoned
	// mid-flow: the site was reached, but a later navigation kept
	// failing after retries (or its circuit opened), so the record
	// carries only the traffic up to the broken step instead of
	// dropping the site outright.
	OutcomePartial Outcome = "partial"
	// OutcomeTimeout marks a site that exceeded its watchdog budget
	// (Options.SiteTimeout): the flow was cut off at the deadline and
	// the record keeps the partial captures up to that point.
	OutcomeTimeout Outcome = "timeout"
	// OutcomeCrashed marks a site whose crawl or detection panicked.
	// The panic is recovered, the site is quarantined with a
	// diagnostics bundle, and the study continues without it.
	OutcomeCrashed Outcome = "crashed"
)

// SiteCrawl is the captured traffic of one site visit.
type SiteCrawl struct {
	Domain   string             `json:"domain"`
	Rank     int                `json:"rank"`
	Outcome  Outcome            `json:"outcome"`
	Obstacle site.Obstacle      `json:"obstacle,omitempty"`
	Records  []httpmodel.Record `json:"records,omitempty"`
	// EmailConfirm and BotDetection echo the site's flow properties.
	EmailConfirm bool `json:"email_confirm,omitempty"`
	BotDetection bool `json:"bot_detection,omitempty"`
	// Attempts, Retries and FailedFetches are the resilient runtime's
	// accounting under fault injection: total fetch attempts (including
	// retries), backoff retries among them, and requests that stayed
	// undelivered after the retry/breaker budget. All zero — and absent
	// from the JSON — on fault-free crawls.
	Attempts      int `json:"attempts,omitempty"`
	Retries       int `json:"retries,omitempty"`
	FailedFetches int `json:"failed_fetches,omitempty"`
}

// Dataset is a full collection run. It is self-contained: the persona
// and the DNS CNAME view travel with the records, so detection can run
// from the JSON alone.
type Dataset struct {
	Browser string           `json:"browser"`
	Persona pii.Persona      `json:"persona"`
	Crawls  []SiteCrawl      `json:"crawls"`
	Mailbox *mailbox.Mailbox `json:"mailbox,omitempty"`
	Blocked map[string]int   `json:"blocked,omitempty"` // per-receiver shield blocks
	// CNAMEs is the DNS view (host -> target) captured during the
	// crawl, for CNAME-cloaking classification.
	CNAMEs map[string]string `json:"cnames,omitempty"`
}

// Zone rebuilds the DNS zone from the dataset's CNAME view.
func (d *Dataset) Zone() *dnssim.Zone {
	z := dnssim.NewZone()
	for host, target := range d.CNAMEs {
		z.AddCNAME(host, target)
	}
	return z
}

// Successes returns the crawls that completed the auth flow.
func (d *Dataset) Successes() []*SiteCrawl {
	var out []*SiteCrawl
	for i := range d.Crawls {
		if d.Crawls[i].Outcome == OutcomeSuccess {
			out = append(out, &d.Crawls[i])
		}
	}
	return out
}

// FunnelCounts tallies outcomes.
func (d *Dataset) FunnelCounts() map[Outcome]int {
	out := map[Outcome]int{}
	for _, c := range d.Crawls {
		out[c.Outcome]++
	}
	return out
}

// TotalRecords counts captured requests.
func (d *Dataset) TotalRecords() int {
	n := 0
	for _, c := range d.Crawls {
		n += len(c.Records)
	}
	return n
}

// WriteJSON serializes the dataset.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// ReadJSON deserializes a dataset and validates its shape: every site
// appears at most once (a resumed or merged run that duplicated a
// domain would silently double-count leaks downstream).
func ReadJSON(r io.Reader) (*Dataset, error) {
	d, err := decodeDataset(r)
	if err != nil {
		return nil, fmt.Errorf("crawler: %w", err)
	}
	return d, nil
}

func decodeDataset(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("decoding dataset: %w", err)
	}
	seen := make(map[string]bool, len(d.Crawls))
	for _, c := range d.Crawls {
		if seen[c.Domain] {
			return nil, fmt.Errorf("corrupt dataset: duplicate site domain %q", c.Domain)
		}
		seen[c.Domain] = true
	}
	return &d, nil
}

// newDataset builds an empty dataset shell: persona, browser label and
// the zone's CNAME view.
func newDataset(eco *webgen.Ecosystem, browserLabel string) *Dataset {
	ds := &Dataset{
		Browser: browserLabel,
		Persona: eco.Persona,
		Mailbox: &mailbox.Mailbox{},
		Blocked: map[string]int{},
		CNAMEs:  map[string]string{},
	}
	for _, host := range eco.Zone.Hosts() {
		if chain, err := eco.Zone.Resolve(host); err == nil && len(chain) > 0 {
			ds.CNAMEs[host] = chain[0]
		}
	}
	return ds
}

// crawlOne executes the flow on one site. rt is the resilient transport
// for this crawl (nil for the stock fault-free run): when set, every
// navigation can fail after retries, and the flow degrades instead of
// pretending the web is reliable.
func crawlOne(b *browser.Browser, s *site.Site, p pii.Persona, mbox *mailbox.Mailbox, rt *faultTransport) SiteCrawl {
	crawl := SiteCrawl{
		Domain:       s.Domain,
		Rank:         s.Rank,
		Obstacle:     s.Obstacle,
		EmailConfirm: s.EmailConfirm,
		BotDetection: s.BotDetection,
	}
	if rt != nil {
		b.Transport = rt
	}
	finish := func(outcome Outcome) SiteCrawl {
		crawl.Outcome = outcome
		crawl.Records = b.Records
		rt.account(&crawl, b)
		return crawl
	}

	switch s.Obstacle {
	case site.ObstacleUnreachable:
		crawl.Outcome = OutcomeUnreachable
		rt.account(&crawl, b)
		return crawl
	case site.ObstacleNoAuth:
		b.VisitPage(s, s.BaseURL(), httpmodel.PhaseHomepage, false)
		return finish(OutcomeNoAuthFlow)
	case site.ObstaclePhoneVerify, site.ObstacleIDDocuments, site.ObstacleRegionBlock:
		b.VisitPage(s, s.BaseURL(), httpmodel.PhaseHomepage, false)
		b.VisitPage(s, s.PageURL("/account/signup"), httpmodel.PhaseSignup, false)
		return finish(OutcomeSignupBlocked)
	}

	// Homepage, then the sign-up page. A homepage that never arrives —
	// retries spent, circuit opened — is the live-web unreachable case
	// (§3.2's 22 sites); a later step breaking instead degrades the
	// record to partial.
	if !b.VisitPage(s, s.BaseURL(), httpmodel.PhaseHomepage, false) {
		return finish(OutcomeUnreachable)
	}
	signupPage := s.PageURL("/account/signup")
	if !b.VisitPage(s, signupPage, httpmodel.PhaseSignup, false) {
		return finish(OutcomePartial)
	}

	// Bot detection: a human operator passes; Brave's shields break
	// the CAPTCHA widget on one site (§7.1).
	if s.BotDetection && s.CaptchaBreaksUnderShields && b.Profile.Shields != nil {
		return finish(OutcomeCaptcha)
	}

	// Submit the sign-up form. GET forms land on the action URL with
	// PII in the query string (the referer-leak source); POST forms
	// redirect to a clean welcome page.
	action := s.SignupActionURL(p)
	resultPage := action
	if !s.SignupGET {
		resultPage = s.PageURL("/account/welcome")
	}
	if !b.SubmitForm(s, action, s.FormFields(p), httpmodel.PhaseSignup, signupPage) {
		return finish(OutcomePartial)
	}
	b.RenderSubresources(s, resultPage, httpmodel.PhaseSignup, false)
	b.FireAuthEvent(s, resultPage, httpmodel.PhaseSignup, false, p, 1)

	// E-mail confirmation when the site requires it. The mail is sent
	// by the sign-up that just succeeded, so it is delivered even when
	// the activation visit then fails.
	if s.EmailConfirm {
		link := s.PageURL("/account/confirm?token=tok-" + s.Domain)
		mbox.DeliverConfirmation(s.Domain, link)
		if !b.VisitPage(s, link, httpmodel.PhaseConfirm, false) {
			return finish(OutcomePartial)
		}
	}

	// Sign in with the created account.
	loginPage := s.PageURL("/account/login")
	if !b.VisitPage(s, loginPage, httpmodel.PhaseSignin, false) {
		return finish(OutcomePartial)
	}
	home := s.PageURL("/account/home")
	if !b.SubmitForm(s, s.PageURL("/account/login/submit"), []site.FormField{
		{Name: "email", Value: p.Email},
		{Name: "password", Value: "correct-horse-battery"},
	}, httpmodel.PhaseSignin, loginPage) {
		return finish(OutcomePartial)
	}
	b.RenderSubresources(s, home, httpmodel.PhaseSignin, false)
	b.FireAuthEvent(s, home, httpmodel.PhaseSignin, false, p, 1)

	// Reload the logged-in page.
	if !b.VisitPage(s, home, httpmodel.PhaseReload, false) {
		return finish(OutcomePartial)
	}
	b.FireAuthEvent(s, home, httpmodel.PhaseReload, false, p, 1)

	// Click through to a product subpage (§5.2's persistence probe):
	// persistent tags fire on the view and again on an interaction.
	product := s.PageURL("/product/8812")
	if !b.VisitPage(s, product, httpmodel.PhaseSubpage, true) {
		return finish(OutcomePartial)
	}
	b.FireAuthEvent(s, product, httpmodel.PhaseSubpage, true, p, 2)

	// Post-signup marketing mail.
	mbox.DeliverMarketing(s.Domain, s.MarketingMails, s.SpamMails)

	return finish(OutcomeSuccess)
}

// WriteJSONFile writes the dataset to a path, gzip-compressing when the
// name ends in ".gz" (full datasets are ~10 MB of JSON). The write goes
// through a temp file in the same directory and an atomic rename, and
// every close/flush error propagates — a crashed or disk-full run can
// never leave a truncated dataset under the final name.
func (d *Dataset) WriteJSONFile(path string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("crawler: writing %s: %w", path, err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err = d.WriteJSON(w); err != nil {
		return fmt.Errorf("crawler: writing %s: %w", path, err)
	}
	if gz != nil {
		// Close flushes the compressor; losing this error is how
		// truncated .gz datasets used to reach disk.
		if err = gz.Close(); err != nil {
			return fmt.Errorf("crawler: writing %s: flushing gzip: %w", path, err)
		}
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("crawler: writing %s: %w", path, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("crawler: writing %s: %w", path, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("crawler: writing %s: %w", path, err)
	}
	return nil
}

// ReadJSONFile loads a dataset from a path, transparently decompressing
// ".gz" files.
func ReadJSONFile(path string) (ds *Dataset, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("crawler: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("crawler: closing %s: %w", path, cerr)
		}
	}()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("crawler: reading %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	ds, err = decodeDataset(r)
	if err != nil {
		return nil, fmt.Errorf("crawler: reading %s: %w", path, err)
	}
	return ds, nil
}
