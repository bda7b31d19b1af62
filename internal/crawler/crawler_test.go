package crawler

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/httpmodel"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// mustRun is Run for tests: any error fails tb.
func mustRun(tb testing.TB, eco *webgen.Ecosystem, profile browser.Profile, opts Options) *Dataset {
	tb.Helper()
	ds, err := Run(context.Background(), eco, profile, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

func smallDataset(t *testing.T) (*webgen.Ecosystem, *Dataset) {
	t.Helper()
	eco := webgen.MustGenerate(webgen.SmallConfig(11))
	return eco, mustRun(t, eco, browser.Firefox88(), Options{})
}

func TestFunnelOutcomes(t *testing.T) {
	eco, ds := smallDataset(t)
	counts := ds.FunnelCounts()
	cfg := eco.Config
	if counts[OutcomeUnreachable] != cfg.Unreachable {
		t.Errorf("unreachable = %d, want %d", counts[OutcomeUnreachable], cfg.Unreachable)
	}
	if counts[OutcomeNoAuthFlow] != cfg.NoAuthFlow {
		t.Errorf("no-auth = %d, want %d", counts[OutcomeNoAuthFlow], cfg.NoAuthFlow)
	}
	wantBlocked := cfg.PhoneVerify + cfg.IDDocuments + cfg.RegionBlock
	if counts[OutcomeSignupBlocked] != wantBlocked {
		t.Errorf("signup-blocked = %d, want %d", counts[OutcomeSignupBlocked], wantBlocked)
	}
	if got := len(ds.Successes()); got != len(eco.Crawlable) {
		t.Errorf("successes = %d, want %d", got, len(eco.Crawlable))
	}
}

func TestSuccessfulCrawlHasAllPhases(t *testing.T) {
	_, ds := smallDataset(t)
	succ := ds.Successes()
	if len(succ) == 0 {
		t.Fatal("no successes")
	}
	phases := map[httpmodel.Phase]bool{}
	for _, r := range succ[0].Records {
		phases[r.Phase] = true
	}
	for _, want := range []httpmodel.Phase{
		httpmodel.PhaseHomepage, httpmodel.PhaseSignup, httpmodel.PhaseSignin,
		httpmodel.PhaseReload, httpmodel.PhaseSubpage,
	} {
		if !phases[want] {
			t.Errorf("missing phase %s", want)
		}
	}
}

func TestEmailConfirmSitesVisitConfirmLink(t *testing.T) {
	eco, ds := smallDataset(t)
	confirms := 0
	for _, c := range ds.Successes() {
		if !c.EmailConfirm {
			continue
		}
		confirms++
		found := false
		for _, r := range c.Records {
			if r.Phase == httpmodel.PhaseConfirm {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no confirm-phase records", c.Domain)
		}
	}
	if confirms != eco.Config.EmailConfirm {
		t.Errorf("email-confirm successes = %d, want %d", confirms, eco.Config.EmailConfirm)
	}
	// Confirmation mails were delivered.
	confMails := 0
	for _, m := range ds.Mailbox.Messages {
		if m.Kind == "confirmation" {
			confMails++
		}
	}
	if confMails != eco.Config.EmailConfirm {
		t.Errorf("confirmation mails = %d, want %d", confMails, eco.Config.EmailConfirm)
	}
}

func TestMailboxVolumes(t *testing.T) {
	eco, ds := smallDataset(t)
	if got := ds.Mailbox.Count("inbox"); got != eco.Config.InboxMails {
		t.Errorf("inbox = %d, want %d", got, eco.Config.InboxMails)
	}
	if got := ds.Mailbox.Count("spam"); got != eco.Config.SpamMails {
		t.Errorf("spam = %d, want %d", got, eco.Config.SpamMails)
	}
}

func TestGETSignupLeavesPIIInReferer(t *testing.T) {
	eco, ds := smallDataset(t)
	getSender := eco.SenderSites[0]
	var crawl *SiteCrawl
	for i := range ds.Crawls {
		if ds.Crawls[i].Domain == getSender.Domain {
			crawl = &ds.Crawls[i]
		}
	}
	if crawl == nil {
		t.Fatal("GET sender not crawled")
	}
	found := false
	for _, r := range crawl.Records {
		ref := r.Request.Referer()
		if strings.Contains(ref, "email=") && r.Request.Host() != getSender.Host() {
			found = true
		}
	}
	if !found {
		t.Error("no third-party request carries the PII referer")
	}
}

func TestBraveCaptchaSiteFails(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(11))
	ds := mustRun(t, eco, browser.Brave129(eco.BraveShields), Options{})
	counts := ds.FunnelCounts()
	if counts[OutcomeCaptcha] != 1 {
		t.Errorf("captcha-blocked = %d, want 1", counts[OutcomeCaptcha])
	}
	// The same crawl under Firefox succeeds everywhere.
	ds2 := mustRun(t, eco, browser.Firefox88(), Options{})
	if c := ds2.FunnelCounts()[OutcomeCaptcha]; c != 0 {
		t.Errorf("firefox captcha-blocked = %d, want 0", c)
	}
}

func TestBraveBlocksShieldedReceivers(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(11))
	ds := mustRun(t, eco, browser.Brave129(eco.BraveShields), Options{Source: site.Slice(eco.SenderSites)})
	if len(ds.Blocked) == 0 {
		t.Fatal("Brave blocked nothing")
	}
	for _, c := range ds.Crawls {
		for _, r := range c.Records {
			host := r.Request.Host()
			for domain := range eco.BraveShields {
				if host == domain || strings.HasSuffix(host, "."+domain) {
					t.Fatalf("shielded receiver %s reached: %s", domain, r.Request.URL)
				}
			}
		}
	}
}

func TestCrawlSendersSubset(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(11))
	ds := mustRun(t, eco, browser.Firefox88(), Options{Source: site.Slice(eco.SenderSites)})
	if len(ds.Crawls) != len(eco.SenderSites) {
		t.Errorf("crawls = %d, want %d", len(ds.Crawls), len(eco.SenderSites))
	}
}

func TestDatasetJSONRoundTrip(t *testing.T) {
	_, ds := smallDataset(t)
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalRecords() != ds.TotalRecords() {
		t.Errorf("records after round trip = %d, want %d", back.TotalRecords(), ds.TotalRecords())
	}
	if len(back.Crawls) != len(ds.Crawls) {
		t.Errorf("crawls = %d, want %d", len(back.Crawls), len(ds.Crawls))
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{broken")); err == nil {
		t.Error("malformed dataset accepted")
	}
}

func TestCrawlDeterministic(t *testing.T) {
	eco1 := webgen.MustGenerate(webgen.SmallConfig(3))
	eco2 := webgen.MustGenerate(webgen.SmallConfig(3))
	d1 := mustRun(t, eco1, browser.Firefox88(), Options{})
	d2 := mustRun(t, eco2, browser.Firefox88(), Options{})
	if d1.TotalRecords() != d2.TotalRecords() {
		t.Errorf("record counts differ: %d vs %d", d1.TotalRecords(), d2.TotalRecords())
	}
}

func TestAutomatedCrawlLosesGatedSites(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(81))
	auto := CrawlAutomated(eco, browser.Firefox88())
	counts := auto.FunnelCounts()

	if counts[OutcomeAutoBotDetected] != eco.Config.BotDetection {
		t.Errorf("bot-detected = %d, want %d", counts[OutcomeAutoBotDetected], eco.Config.BotDetection)
	}
	if counts[OutcomeAutoFormUnmatched] == 0 {
		t.Error("no exotic forms defeated the heuristics")
	}
	if counts[OutcomeAutoNoConfirm] == 0 {
		t.Error("no confirmation-gated sites stalled")
	}
	manual := mustRun(t, eco, browser.Firefox88(), Options{})
	if counts[OutcomeSuccess] >= manual.FunnelCounts()[OutcomeSuccess] {
		t.Errorf("automation completed %d flows, manual %d — automation should lose coverage",
			counts[OutcomeSuccess], manual.FunnelCounts()[OutcomeSuccess])
	}
	// The funnel obstacles are identical for both.
	if counts[OutcomeUnreachable] != eco.Config.Unreachable {
		t.Errorf("unreachable = %d", counts[OutcomeUnreachable])
	}
}

func TestAutomatedCrawlStillSeesSignupLeaks(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(81))
	auto := CrawlAutomated(eco, browser.Firefox88())
	// A confirmation-gated crawl still contains signup-phase records.
	for i := range auto.Crawls {
		c := &auto.Crawls[i]
		if c.Outcome != OutcomeAutoNoConfirm {
			continue
		}
		sawSignup := false
		for _, r := range c.Records {
			if r.Phase == httpmodel.PhaseSignup {
				sawSignup = true
			}
			if r.Phase == httpmodel.PhaseSubpage {
				t.Fatalf("%s: confirmation-gated crawl reached a subpage", c.Domain)
			}
		}
		if !sawSignup {
			t.Fatalf("%s: no signup records despite form submission", c.Domain)
		}
		return
	}
	t.Skip("no confirmation-gated site in this sample")
}

func TestCrawlParallelMatchesSerial(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(17))
	serial := mustRun(t, eco, browser.Firefox88(), Options{})
	parallel := mustRun(t, eco, browser.Firefox88(), Options{Workers: 4})

	if len(serial.Crawls) != len(parallel.Crawls) {
		t.Fatalf("crawl counts differ: %d vs %d", len(serial.Crawls), len(parallel.Crawls))
	}
	for i := range serial.Crawls {
		a, b := &serial.Crawls[i], &parallel.Crawls[i]
		if a.Domain != b.Domain || a.Outcome != b.Outcome || len(a.Records) != len(b.Records) {
			t.Fatalf("site %d differs: %s/%s %s/%s %d/%d",
				i, a.Domain, b.Domain, a.Outcome, b.Outcome, len(a.Records), len(b.Records))
		}
		for j := range a.Records {
			if a.Records[j].Request.URL != b.Records[j].Request.URL {
				t.Fatalf("site %s record %d URL differs", a.Domain, j)
			}
		}
	}
	if serial.Mailbox.Count("inbox") != parallel.Mailbox.Count("inbox") {
		t.Error("mailbox volumes differ")
	}
	if len(serial.Blocked) != len(parallel.Blocked) {
		t.Error("blocked counters differ")
	}
}

func TestCrawlParallelWorkerBounds(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(17))
	for _, workers := range []int{-1, 0, 1, 1000} {
		ds := mustRun(t, eco, browser.Firefox88(), Options{Workers: workers})
		if len(ds.Crawls) != len(eco.Sites) {
			t.Errorf("workers=%d: crawls = %d", workers, len(ds.Crawls))
		}
	}
}

func BenchmarkCrawlSerial(b *testing.B) {
	eco := webgen.MustGenerate(webgen.SmallConfig(17))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRun(b, eco, browser.Firefox88(), Options{})
	}
}

func BenchmarkCrawlParallel(b *testing.B) {
	eco := webgen.MustGenerate(webgen.SmallConfig(17))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRun(b, eco, browser.Firefox88(), Options{Workers: runtime.GOMAXPROCS(0)})
	}
}

func TestDatasetFileGzipRoundTrip(t *testing.T) {
	_, ds := smallDataset(t)
	dir := t.TempDir()
	for _, name := range []string{"ds.json", "ds.json.gz"} {
		path := dir + "/" + name
		if err := ds.WriteJSONFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.TotalRecords() != ds.TotalRecords() {
			t.Errorf("%s: records = %d, want %d", name, back.TotalRecords(), ds.TotalRecords())
		}
	}
	if _, err := ReadJSONFile(dir + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
}
