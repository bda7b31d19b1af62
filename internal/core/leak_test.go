package core_test

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/webgen"
)

// These tests pin what a Leak looks like — receiver, channel,
// parameter, encoding, cloaking — and how leaks aggregate, as produced
// by the production detector (detect.Scanner). They live in an external
// test package because detect imports core.

// testScanner compiles a detector over the default persona with a small
// transform set; zone, when non-nil, enables CNAME uncloaking.
func testScanner(t *testing.T, zone *dnssim.Zone) *detect.Scanner {
	t.Helper()
	var cls *dnssim.Classifier
	if zone != nil {
		cls = dnssim.NewClassifier(zone)
	}
	eng, err := detect.NewEngine(pii.Default(), cls, detect.Config{
		Candidates: pii.CandidateConfig{
			MaxDepth:   2,
			Transforms: []string{"md5", "sha1", "sha256", "base64"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng.NewScanner()
}

// studyLeaks crawls a small ecosystem and detects its leaks with the
// study's depth-2 engine.
func studyLeaks(tb testing.TB, seed uint64) (*webgen.Ecosystem, *crawler.Dataset, []core.Leak) {
	tb.Helper()
	eco := webgen.MustGenerate(webgen.SmallConfig(seed))
	ds, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := detect.NewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	sc := eng.NewScanner()
	var leaks []core.Leak
	for _, c := range ds.Successes() {
		leaks = append(leaks, sc.DetectSite(c.Domain, c.Records)...)
	}
	return eco, ds, leaks
}

func sha256Email(t *testing.T) string {
	t.Helper()
	return string(pii.MustApplyChain(pii.Default().Email, []string{"sha256"}))
}

func TestDetectRecordURI(t *testing.T) {
	d := testScanner(t, nil)
	rec := httpmodel.Record{
		Seq: 1, Phase: httpmodel.PhaseSignup,
		Request: httpmodel.Request{
			Method: "GET",
			URL:    "https://ct.pinterest.com/v3/collect?pd=" + sha256Email(t) + "&v=2",
		},
	}
	leaks := d.DetectRecord("shop.example.com", &rec)
	if len(leaks) != 1 {
		t.Fatalf("leaks = %d, want 1: %+v", len(leaks), leaks)
	}
	l := leaks[0]
	if l.Receiver != "pinterest.com" || l.Method != httpmodel.SurfaceURI {
		t.Errorf("leak = %+v", l)
	}
	if l.Param != "pd" {
		t.Errorf("param = %q, want pd", l.Param)
	}
	if l.EncodingLabel() != "sha256" {
		t.Errorf("encoding = %q", l.EncodingLabel())
	}
	if l.Token.Field.Type != pii.TypeEmail {
		t.Errorf("PII type = %q", l.Token.Field.Type)
	}
}

func TestDetectRecordFirstPartyIgnored(t *testing.T) {
	d := testScanner(t, nil)
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method: "GET",
			URL:    "https://www.shop.example.com/signup?email=" + pii.Default().Email,
		},
	}
	if leaks := d.DetectRecord("shop.example.com", &rec); leaks != nil {
		t.Errorf("first-party request produced leaks: %+v", leaks)
	}
}

func TestDetectRecordReferer(t *testing.T) {
	d := testScanner(t, nil)
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method: "GET",
			URL:    "https://ib.adnxs.com/seg?add=1",
			Headers: map[string]string{
				"Referer": "https://www.shop.example.com/signup?email=" + pii.Default().Email,
			},
		},
	}
	leaks := d.DetectRecord("shop.example.com", &rec)
	if len(leaks) != 1 || leaks[0].Method != httpmodel.SurfaceReferer {
		t.Fatalf("leaks = %+v", leaks)
	}
	if leaks[0].EncodingLabel() != "plaintext" {
		t.Errorf("encoding = %q", leaks[0].EncodingLabel())
	}
}

func TestDetectRecordPayloadJSON(t *testing.T) {
	d := testScanner(t, nil)
	b64 := pii.MustApplyChain(pii.Default().Email, []string{"base64"})
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method:   "POST",
			URL:      "https://api.bluecore.com/events",
			Body:     []byte(`{"data":"` + string(b64) + `","event":"identify"}`),
			BodyType: "application/json",
		},
	}
	leaks := d.DetectRecord("shop.example.com", &rec)
	if len(leaks) != 1 || leaks[0].Method != httpmodel.SurfaceBody {
		t.Fatalf("leaks = %+v", leaks)
	}
	if leaks[0].Param != "data" {
		t.Errorf("param = %q, want data", leaks[0].Param)
	}
}

func TestDetectRecordCookie(t *testing.T) {
	zone := dnssim.NewZone()
	zone.AddCNAME("smetrics.shop.example.com", "shopexample.sc.omtrdc.net")
	d := testScanner(t, zone)
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method:  "GET",
			URL:     "https://smetrics.shop.example.com/b/ss/pageview",
			Cookies: []httpmodel.Cookie{{Name: "s_ecid", Value: sha256Email(t), Domain: "smetrics.shop.example.com"}},
		},
	}
	leaks := d.DetectRecord("shop.example.com", &rec)
	if len(leaks) != 1 {
		t.Fatalf("leaks = %+v", leaks)
	}
	l := leaks[0]
	if !l.Cloaked || l.Receiver != "omtrdc.net" || l.Method != httpmodel.SurfaceCookie {
		t.Errorf("leak = %+v", l)
	}
	if l.Param != "s_ecid" {
		t.Errorf("param = %q", l.Param)
	}
}

func TestDetectRecordUncloakedFirstPartyCookieIgnored(t *testing.T) {
	d := testScanner(t, dnssim.NewZone())
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method:  "GET",
			URL:     "https://account.shop.example.com/session",
			Cookies: []httpmodel.Cookie{{Name: "sid", Value: sha256Email(t), Domain: "shop.example.com"}},
		},
	}
	if leaks := d.DetectRecord("shop.example.com", &rec); leaks != nil {
		t.Errorf("non-cloaked first-party cookie flagged: %+v", leaks)
	}
}

func TestDetectDedupAcrossSurfaces(t *testing.T) {
	// The same token appears in the raw query, the decoded query, and
	// a named parameter: one leak, attributed to the parameter.
	d := testScanner(t, nil)
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method: "GET",
			URL:    "https://t.tracker.net/c?em=" + sha256Email(t),
		},
	}
	leaks := d.DetectRecord("shop.example.com", &rec)
	if len(leaks) != 1 {
		t.Fatalf("leaks = %d, want 1 (deduplicated)", len(leaks))
	}
	if leaks[0].Param != "em" {
		t.Errorf("param = %q, want em (named surface wins)", leaks[0].Param)
	}
}

func TestDecodeDetectFindsBase64(t *testing.T) {
	// A detector whose candidate set has NO base64 tokens still finds
	// the leak by decoding the surface.
	eng, err := detect.NewEngine(pii.Default(), nil, detect.Config{
		Candidates: pii.CandidateConfig{MaxDepth: 1, Transforms: []string{"sha256"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := eng.NewScanner()
	b64 := pii.MustApplyChain(pii.Default().Email, []string{"base64"})
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method: "GET",
			URL:    "https://static.klaviyo.com/onsite/identify?data=" + string(b64),
		},
	}
	if got := d.DetectRecord("shop.example.com", &rec); got != nil {
		t.Fatalf("candidate-set detection unexpectedly matched: %+v", got)
	}
	leaks := d.DecodeDetect("shop.example.com", &rec, 2)
	if len(leaks) == 0 {
		t.Fatal("decode-based detection missed the base64 leak")
	}
	if pii.ChainLabel(leaks[0].Token.Chain) != "plaintext" {
		t.Errorf("decoded token label = %q", pii.ChainLabel(leaks[0].Token.Chain))
	}
}

func TestDecodeDetectStableOrder(t *testing.T) {
	// A record leaking the same persona on several surfaces: the output
	// must be sorted by (method, param, token) and identical on every
	// call — the A3 ablation diffs this list, so insertion order (which
	// depends on surface iteration) must never show through.
	d := testScanner(t, nil)
	p := pii.Default()
	rec := httpmodel.Record{
		Seq: 3, Phase: httpmodel.PhaseSignup,
		Request: httpmodel.Request{
			Method: "GET",
			URL:    "https://t.tracker.net/c?em=" + p.Email + "&ph=" + p.Phone,
			Headers: map[string]string{
				"Referer": "https://www.shop.example.com/signup?email=" + p.Email,
			},
		},
	}
	leaks := d.DecodeDetect("shop.example.com", &rec, 2)
	if len(leaks) < 3 {
		t.Fatalf("leaks = %d, want >= 3 (two query params + referer): %+v", len(leaks), leaks)
	}
	if !sort.SliceIsSorted(leaks, func(a, b int) bool {
		if leaks[a].Method != leaks[b].Method {
			return leaks[a].Method < leaks[b].Method
		}
		if leaks[a].Param != leaks[b].Param {
			return leaks[a].Param < leaks[b].Param
		}
		return leaks[a].Token.Value < leaks[b].Token.Value
	}) {
		t.Errorf("DecodeDetect output not sorted by (method, param, token): %+v", leaks)
	}
	for i := 0; i < 10; i++ {
		again := d.DecodeDetect("shop.example.com", &rec, 2)
		if !reflect.DeepEqual(leaks, again) {
			t.Fatalf("DecodeDetect unstable on call %d", i)
		}
	}
}

// TestEndToEndRecoversGroundTruth is the package's key property: the
// detection pipeline, run over simulated traffic only, must recover the
// ecosystem's calibrated leak graph.
func TestEndToEndRecoversGroundTruth(t *testing.T) {
	eco, ds, leaks := studyLeaks(t, 21)
	a := core.Analyze(leaks, len(ds.Successes()))

	// Every configured sender is detected; nothing else is.
	wantSenders := map[string]bool{}
	for _, s := range eco.SenderSites {
		wantSenders[s.Domain] = true
	}
	for _, s := range a.Senders {
		if !wantSenders[s] {
			t.Errorf("false-positive sender %s", s)
		}
	}
	if len(a.Senders) != len(eco.SenderSites) {
		t.Errorf("senders detected = %d, want %d", len(a.Senders), len(eco.SenderSites))
	}

	// Every edge's receiver is recovered.
	wantPairs := map[string]bool{}
	for _, ed := range eco.Edges {
		wantPairs[eco.SenderSites[ed.Sender].Domain+"->"+eco.Providers[ed.Provider].Domain] = true
	}
	gotPairs := map[string]bool{}
	for _, l := range leaks {
		gotPairs[l.Site+"->"+l.Receiver] = true
	}
	for p := range wantPairs {
		if !gotPairs[p] {
			t.Errorf("edge not recovered: %s", p)
		}
	}

	// No benign receiver is implicated.
	for _, l := range leaks {
		if strings.Contains(l.Receiver, "jscdn-static") || strings.Contains(l.Receiver, "webfonts-host") {
			t.Errorf("benign CDN implicated: %+v", l)
		}
	}

	// The cloaked Adobe receiver is found as omtrdc.net via CNAME.
	foundCloaked := false
	for _, l := range leaks {
		if l.Cloaked && l.Receiver == "omtrdc.net" {
			foundCloaked = true
		}
	}
	if !foundCloaked {
		t.Error("cloaked Adobe leaks not recovered")
	}

	// Referer leaks from the GET-form senders are recovered.
	refSenders := map[string]bool{}
	for _, l := range leaks {
		if l.Method == httpmodel.SurfaceReferer {
			refSenders[l.Site] = true
		}
	}
	if len(refSenders) != 3 {
		t.Errorf("referer senders = %d, want 3", len(refSenders))
	}
}

func BenchmarkDetectSite(b *testing.B) {
	eco := webgen.MustGenerate(webgen.SmallConfig(21))
	ds, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sc := detect.MustNewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{}).NewScanner()
	succ := ds.Successes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := succ[i%len(succ)]
		sc.DetectSite(c.Domain, c.Records)
	}
}

// TestAnalysisInvariants checks structural properties of the aggregates
// over a real end-to-end leak set.
func TestAnalysisInvariants(t *testing.T) {
	_, ds, leaks := studyLeaks(t, 47)
	a := core.Analyze(leaks, len(ds.Successes()))
	total := len(a.Senders)

	// PII-type buckets partition the senders exactly.
	sum := 0
	for _, r := range a.ByPIIType() {
		sum += r.Senders
	}
	if sum != total {
		t.Errorf("PII buckets sum to %d, want %d", sum, total)
	}

	// No per-method count can exceed the population; the combined row
	// is bounded by the smallest pair.
	for _, r := range a.ByMethod() {
		if r.Senders > total || r.Receivers > len(a.Receivers) {
			t.Errorf("method row %q exceeds population: %+v", r.Label, r)
		}
	}

	// TopReceivers is sorted descending and percentage-consistent.
	top := a.TopReceivers(0)
	for i := 1; i < len(top); i++ {
		if top[i].Senders > top[i-1].Senders {
			t.Fatalf("TopReceivers not sorted at %d", i)
		}
	}
	for _, r := range top {
		want := 100 * float64(r.Senders) / float64(total)
		if diff := r.SenderPct - want; diff > 0.01 || diff < -0.01 {
			t.Errorf("%s pct = %v, want %v", r.Receiver, r.SenderPct, want)
		}
	}

	// Headline totals agree with the raw aggregates.
	h := a.Headline()
	if h.Senders != total || h.Receivers != len(a.Receivers) {
		t.Errorf("headline inconsistent: %+v", h)
	}
}
