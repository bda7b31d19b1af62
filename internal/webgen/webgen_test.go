package webgen

import (
	"slices"
	"strings"
	"testing"

	"piileak/internal/blocklist"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/psl"
	"piileak/internal/site"
)

func defaultEco(t *testing.T) *Ecosystem {
	t.Helper()
	eco, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eco
}

func TestCatalogExactlyOneHundredProviders(t *testing.T) {
	cat := Catalog()
	if len(cat) != 100 {
		t.Fatalf("catalog has %d providers, want 100", len(cat))
	}
	seen := map[string]bool{}
	for _, p := range cat {
		if seen[p.Domain] {
			t.Errorf("duplicate provider domain %s", p.Domain)
		}
		seen[p.Domain] = true
	}
}

func TestCatalogTable2Providers(t *testing.T) {
	// The 20 tracking providers of Table 2, with exact sender counts.
	want := map[string]int{
		"facebook.com": 74, "criteo.com": 37, "pinterest.com": 33,
		"snapchat.com": 20, "cquotient.com": 7, "bluecore.com": 5,
		"klaviyo.com": 4, "oracleinfinity.io": 4, "rlcdn.com": 4,
		"omtrdc.net": 7, "castle.io": 2, "custora.com": 2,
		"dotomi.com": 2, "inside-graph.com": 2, "krxd.net": 2,
		"pxf.io": 2, "taboola.com": 2, "thebrighttag.com": 2,
		"yahoo.com": 2, "zendesk.com": 2,
	}
	cat := Catalog()
	persistent := 0
	for i := range cat {
		p := &cat[i]
		if !p.Persistent {
			continue
		}
		persistent++
		if wantN, ok := want[p.Domain]; !ok {
			t.Errorf("unexpected persistent provider %s", p.Domain)
		} else if got := p.TotalSenders(); got != wantN {
			t.Errorf("%s: %d sender slots, want %d", p.Domain, got, wantN)
		}
	}
	if persistent != 20 {
		t.Errorf("persistent providers = %d, want 20", persistent)
	}
}

func TestCatalogBraveMissedEight(t *testing.T) {
	missed := map[string]bool{}
	for _, p := range Catalog() {
		if !p.BraveBlocked {
			missed[p.Domain] = true
		}
	}
	want := []string{
		"aliyun.com", "cartsync.io", "gravatar.com", "herokuapp.com",
		"intercom.io", "lmcdn.ru", "okta-emea.com", "zendesk.com",
	}
	if len(missed) != len(want) {
		t.Fatalf("Brave misses %d domains, want %d: %v", len(missed), len(want), missed)
	}
	for _, d := range want {
		if !missed[d] {
			t.Errorf("Brave-missed set lacks %s", d)
		}
	}
}

func TestCatalogBlocklistMisses(t *testing.T) {
	// §7.2: custora, taboola, zendesk escape the combined blocklists.
	for _, p := range Catalog() {
		if !p.Persistent {
			continue
		}
		miss := p.Domain == "custora.com" || p.Domain == "taboola.com" || p.Domain == "zendesk.com"
		covered := p.EasyPrivacy || p.EasyList
		if miss && covered {
			t.Errorf("%s should be missed by the lists", p.Domain)
		}
		if !miss && !covered {
			t.Errorf("%s should be covered by the lists", p.Domain)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(SmallConfig(5))
	b := MustGenerate(SmallConfig(5))
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i].Sender != b.Edges[i].Sender ||
			a.Edges[i].Provider != b.Edges[i].Provider ||
			a.Edges[i].Param != b.Edges[i].Param {
			t.Fatalf("edge %d differs", i)
		}
	}
	if a.SenderSites[0].Domain != b.SenderSites[0].Domain {
		t.Error("sender sites differ")
	}
}

func TestFunnelCounts(t *testing.T) {
	eco := defaultEco(t)
	if got := len(eco.Sites); got != 404 {
		t.Errorf("candidate sites = %d, want 404", got)
	}
	if got := len(eco.Crawlable); got != 307 {
		t.Errorf("crawlable sites = %d, want 307", got)
	}
	counts := map[site.Obstacle]int{}
	for _, s := range eco.Sites {
		counts[s.Obstacle]++
	}
	wantObstacles := map[site.Obstacle]int{
		site.ObstacleUnreachable: 22,
		site.ObstacleNoAuth:      19,
		site.ObstaclePhoneVerify: 47,
		site.ObstacleIDDocuments: 6,
		site.ObstacleRegionBlock: 3,
		site.ObstacleNone:        307,
	}
	for k, v := range wantObstacles {
		if counts[k] != v {
			t.Errorf("obstacle %q = %d, want %d", k, counts[k], v)
		}
	}

	confirm, bot := 0, 0
	for _, s := range eco.Crawlable {
		if s.EmailConfirm {
			confirm++
		}
		if s.BotDetection {
			bot++
		}
	}
	if confirm != 68 {
		t.Errorf("email-confirm sites = %d, want 68", confirm)
	}
	if bot != 43 {
		t.Errorf("bot-detection sites = %d, want 43", bot)
	}
}

func TestSenderPopulation(t *testing.T) {
	eco := defaultEco(t)
	if got := len(eco.SenderSites); got != 130 {
		t.Fatalf("senders = %d, want 130", got)
	}
	// First three senders have GET signup forms.
	for i := 0; i < 3; i++ {
		if !eco.SenderSites[i].SignupGET {
			t.Errorf("sender %d is not a GET-form site", i)
		}
	}
	for i := 3; i < len(eco.SenderSites); i++ {
		if eco.SenderSites[i].SignupGET {
			t.Errorf("sender %d unexpectedly has a GET form", i)
		}
	}
}

func TestEveryNonRefererSenderHasEdges(t *testing.T) {
	eco := defaultEco(t)
	edges := map[int]int{}
	for _, ed := range eco.Edges {
		edges[ed.Sender]++
	}
	for i := refererSenders; i < len(eco.SenderSites); i++ {
		if edges[i] == 0 {
			t.Errorf("sender %d has no edges", i)
		}
	}
	// Referer senders leak only via their GET form.
	for i := 0; i < refererSenders; i++ {
		if edges[i] != 0 {
			t.Errorf("referer sender %d has %d slot edges", i, edges[i])
		}
	}
}

func TestReceiverDistributionShape(t *testing.T) {
	eco := defaultEco(t)
	perSender := map[int]map[int]bool{}
	for _, ed := range eco.Edges {
		if perSender[ed.Sender] == nil {
			perSender[ed.Sender] = map[int]bool{}
		}
		perSender[ed.Sender][ed.Provider] = true
	}
	// Referer senders' receivers come from their ad tags.
	for i, set := range refererTagSets() {
		perSender[i] = map[int]bool{}
		for range set {
			perSender[i][len(perSender[i])] = true
		}
	}

	total, atLeast3, max := 0, 0, 0
	for _, provs := range perSender {
		n := len(provs)
		total += n
		if n >= 3 {
			atLeast3++
		}
		if n > max {
			max = n
		}
	}
	avg := float64(total) / float64(len(eco.SenderSites))
	// Paper: mean 2.97, 46.15% with >= 3, max 16.
	if avg < 2.5 || avg > 3.5 {
		t.Errorf("mean receivers/sender = %.2f, want ≈ 2.97", avg)
	}
	if pct := float64(atLeast3) / 1.30; pct < 30 || pct > 62 {
		t.Errorf("senders with ≥3 receivers = %.1f%%, want ≈ 46%%", pct)
	}
	if max < 12 || max > 20 {
		t.Errorf("max receivers = %d, want ≈ 16", max)
	}
}

func TestHeroSenderHasMaxReceivers(t *testing.T) {
	eco := defaultEco(t)
	perSender := map[int]map[int]bool{}
	for _, ed := range eco.Edges {
		if perSender[ed.Sender] == nil {
			perSender[ed.Sender] = map[int]bool{}
		}
		perSender[ed.Sender][ed.Provider] = true
	}
	heroN := len(perSender[heroSender])
	for s, provs := range perSender {
		if len(provs) > heroN {
			t.Errorf("sender %d has %d receivers, more than hero's %d", s, len(provs), heroN)
		}
	}
	if heroN < 12 {
		t.Errorf("hero has only %d receivers", heroN)
	}
}

func TestMethodMarginals(t *testing.T) {
	eco := defaultEco(t)
	methodSenders := map[httpmodel.SurfaceKind]map[int]bool{}
	for _, ed := range eco.Edges {
		if methodSenders[ed.Method] == nil {
			methodSenders[ed.Method] = map[int]bool{}
		}
		methodSenders[ed.Method][ed.Sender] = true
	}
	if got := len(methodSenders[httpmodel.SurfaceCookie]); got != 5 {
		t.Errorf("cookie senders = %d, want 5", got)
	}
	if got := len(methodSenders[httpmodel.SurfaceURI]); got < 105 || got > 127 {
		t.Errorf("URI senders = %d, want ≈ 118", got)
	}
	if got := len(methodSenders[httpmodel.SurfaceBody]); got < 25 || got > 55 {
		t.Errorf("payload senders = %d, want ≈ 43", got)
	}
}

func TestMultiPIICohorts(t *testing.T) {
	eco := defaultEco(t)
	nameSenders := map[int]bool{}
	userSenders := map[int]bool{}
	usernameOnly := map[int]bool{}
	for _, ed := range eco.Edges {
		hasName, hasUser, hasEmail := false, false, false
		for _, tpe := range ed.PII {
			switch tpe {
			case pii.TypeName:
				hasName = true
			case pii.TypeUsername:
				hasUser = true
			case pii.TypeEmail:
				hasEmail = true
			}
		}
		if hasName {
			nameSenders[ed.Sender] = true
		}
		if hasUser && hasEmail {
			userSenders[ed.Sender] = true
		}
		if hasUser && !hasEmail {
			usernameOnly[ed.Sender] = true
		}
	}
	if len(nameSenders) != 29 {
		t.Errorf("email+name senders = %d, want 29", len(nameSenders))
	}
	if len(userSenders) != 3 {
		t.Errorf("email+username senders = %d, want 3", len(userSenders))
	}
	if len(usernameOnly) != 1 {
		t.Errorf("username-only senders = %d, want 1", len(usernameOnly))
	}
}

func TestCloakedTagsHaveCNAMEs(t *testing.T) {
	eco := defaultEco(t)
	cloaked := 0
	for _, s := range eco.SenderSites {
		for _, tag := range s.Tags {
			if tag.Receiver != "omtrdc.net" {
				continue
			}
			cloaked++
			if !strings.HasPrefix(tag.Host, "smetrics.") || !strings.HasSuffix(tag.Host, s.Domain) {
				t.Errorf("cloaked tag host %q not a first-party subdomain of %s", tag.Host, s.Domain)
			}
			chain, err := eco.Zone.Resolve(tag.Host)
			if err != nil || len(chain) == 0 {
				t.Errorf("no CNAME for cloaked host %s", tag.Host)
			}
		}
	}
	if cloaked != 7 {
		t.Errorf("cloaked (adobe) sender tags = %d, want 7 (3 URI + 4 cookie)", cloaked)
	}
}

// TestTagURLsBuiltOnce: every tag the generator makes, in the study
// core and in a universe tail, stores the URL its Host and Path give,
// so its load and leak requests read the URL instead of building it
// again (URL allocates nothing), and the registrable domain the public
// suffix list gives its Host, so the browser walks no list for it.
func TestTagURLsBuiltOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UniverseSize = 1000
	u := MustGenerate(cfg).Universe()
	tags := 0
	for i := 0; i < u.Len(); i++ {
		s := u.At(i)
		for j := range s.Tags {
			tag := &s.Tags[j]
			tags++
			if got, want := tag.URL(), "https://"+tag.Host+tag.Path; got != want {
				t.Fatalf("%s: tag URL %q, want %q", s.Domain, got, want)
			}
			want, _ := psl.ETLDPlusOne(tag.Host)
			if got, stored := tag.RegistrableDomain(); !stored || got != want {
				t.Fatalf("%s: tag %s stores registrable domain %q (stored %v), the list gives %q", s.Domain, tag.Host, got, stored, want)
			}
			if raceEnabled {
				continue
			}
			if allocs := testing.AllocsPerRun(1, func() { _ = tag.URL() }); allocs != 0 {
				t.Fatalf("%s: tag %s builds its URL on every call (%.0f allocs)", s.Domain, tag.Host, allocs)
			}
		}
	}
	if tags == 0 {
		t.Fatal("no tags generated")
	}
}

func TestBraveSurvivorsExactlyNine(t *testing.T) {
	eco := defaultEco(t)
	survivors := map[int]bool{}
	for _, ed := range eco.Edges {
		if !eco.Providers[ed.Provider].BraveBlocked {
			survivors[ed.Sender] = true
		}
	}
	if len(survivors) != 9 {
		t.Errorf("Brave-surviving senders = %d, want 9", len(survivors))
	}
}

func TestPolicyClassCounts(t *testing.T) {
	eco := defaultEco(t)
	counts := map[site.PolicyClass]int{}
	for _, s := range eco.SenderSites {
		counts[s.Policy]++
	}
	want := map[site.PolicyClass]int{
		site.PolicyNotSpecific:   102,
		site.PolicySpecific:      9,
		site.PolicyNoDescription: 15,
		site.PolicyExplicitlyNot: 4,
	}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("policy %q = %d, want %d", k, counts[k], v)
		}
	}
}

func TestMailVolumes(t *testing.T) {
	eco := defaultEco(t)
	inbox, spam := 0, 0
	for _, s := range eco.Crawlable {
		inbox += s.MarketingMails
		spam += s.SpamMails
	}
	if inbox != 2172 {
		t.Errorf("inbox mails = %d, want 2172", inbox)
	}
	if spam != 141 {
		t.Errorf("spam mails = %d, want 141", spam)
	}
}

func TestGeneratedBlocklistsParse(t *testing.T) {
	eco := defaultEco(t)
	el, err := blocklist.ParseList("easylist", eco.EasyListText)
	if err != nil {
		t.Fatalf("EasyList: %v", err)
	}
	ep, err := blocklist.ParseList("easyprivacy", eco.EasyPrivacyText)
	if err != nil {
		t.Fatalf("EasyPrivacy: %v", err)
	}
	if len(el.Rules) < 5 {
		t.Errorf("EasyList has only %d rules", len(el.Rules))
	}
	if len(ep.Rules) < 50 {
		t.Errorf("EasyPrivacy has only %d rules", len(ep.Rules))
	}
	// EasyPrivacy must block facebook third-party traffic but not
	// custora/taboola/zendesk.
	e := blocklist.NewEngine(ep)
	if !e.Match(blocklist.RequestInfo{
		URL: "https://www.facebook.com/en_US/fbevents.js", PageHost: "shop.example",
		Type: blocklist.TypeScript, ThirdParty: true,
	}).Blocked {
		t.Error("EasyPrivacy does not block facebook")
	}
	for _, miss := range []string{"c.custora.com", "cdn.taboola.com", "ekr.zendesk.com"} {
		if e.Match(blocklist.RequestInfo{
			URL: "https://" + miss + "/x.js", PageHost: "shop.example",
			Type: blocklist.TypeScript, ThirdParty: true,
		}).Blocked {
			t.Errorf("EasyPrivacy unexpectedly blocks %s", miss)
		}
	}
	// The cloaked Adobe path rule works on first-party hosts.
	if !e.Match(blocklist.RequestInfo{
		URL: "https://smetrics.shop.example/b/ss/s_code/collect?v_em=x", PageHost: "shop.example",
		Type: blocklist.TypeScript, ThirdParty: false,
	}).Blocked {
		t.Error("EasyPrivacy misses the cloaked Adobe path")
	}
}

func TestCaptchaSiteDesignated(t *testing.T) {
	eco := defaultEco(t)
	survivors := map[int]bool{}
	for _, ed := range eco.Edges {
		if !eco.Providers[ed.Provider].BraveBlocked {
			survivors[ed.Sender] = true
		}
	}
	n := 0
	for _, s := range eco.Crawlable {
		if !s.CaptchaBreaksUnderShields {
			continue
		}
		n++
		if !s.BotDetection {
			t.Error("captcha site lacks bot detection")
		}
		idx := slices.Index(eco.SenderSites, s)
		if idx < 0 {
			t.Error("captcha site is not a sender (nykaa.com was one of the 130)")
		} else if survivors[idx] {
			t.Error("captcha site is a Brave survivor; §7.1 survivor count would drift")
		}
	}
	if n != 1 {
		t.Errorf("captcha-breaks sites = %d, want 1", n)
	}
}

func TestSmallConfigGenerates(t *testing.T) {
	eco := MustGenerate(SmallConfig(1))
	if len(eco.SenderSites) != 30 {
		t.Errorf("small senders = %d", len(eco.SenderSites))
	}
	if len(eco.Edges) == 0 {
		t.Error("small ecosystem has no edges")
	}
}

func TestValidateErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.Senders = 999
	if _, err := Generate(bad); err == nil {
		t.Error("oversized sender count accepted")
	}
	bad2 := DefaultConfig()
	bad2.PolicySpecific = 100
	if _, err := Generate(bad2); err == nil {
		t.Error("mismatched policy classes accepted")
	}
}

func TestProviderHostsMatchDomains(t *testing.T) {
	for _, p := range Catalog() {
		if p.Cloaked {
			continue
		}
		if p.Host != p.Domain && !strings.HasSuffix(p.Host, "."+p.Domain) {
			t.Errorf("%s: tag host %q is not under the receiver domain", p.Domain, p.Host)
		}
	}
}

func TestFieldNamingSchemes(t *testing.T) {
	eco := defaultEco(t)
	counts := map[int]int{}
	for _, s := range eco.Sites {
		counts[s.FieldNaming]++
	}
	// Roughly one in ten sites uses the exotic scheme.
	if counts[3] < len(eco.Sites)/15 || counts[3] > len(eco.Sites)/6 {
		t.Errorf("exotic-naming sites = %d of %d", counts[3], len(eco.Sites))
	}
	// The GET-form senders always use plain names (their referer leak
	// must be readable).
	for i := 0; i < 3; i++ {
		if eco.SenderSites[i].FieldNaming != 0 {
			t.Errorf("GET sender %d uses scheme %d", i, eco.SenderSites[i].FieldNaming)
		}
	}
}
