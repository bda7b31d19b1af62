package detect

import (
	"context"
	"encoding/json"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/webgen"
)

// crawlDataset runs the fault-free serial crawl of eco under Firefox 88.
func crawlDataset(tb testing.TB, eco *webgen.Ecosystem) *crawler.Dataset {
	tb.Helper()
	ds, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkRecord asserts the scanner and the legacy detector agree byte-
// for-byte on one record, and returns the leaks.
func checkRecord(t *testing.T, sc *Scanner, site string, rec *httpmodel.Record) []core.Leak {
	t.Helper()
	want := LegacyFor(sc.Engine()).DetectRecord(site, rec)
	got := sc.DetectRecord(site, rec)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("scanner diverges from legacy on %s %s:\nlegacy:  %s\nscanner: %s",
			site, rec.Request.URL, mustJSON(t, want), mustJSON(t, got))
	}
	return got
}

// TestScannerMatchesLegacyOnCrawls is the package-level differential:
// across several ecosystem seeds, the two-phase scanner's output over a
// full crawl must be byte-identical to the legacy detector's, site by
// site — through a held Scanner and the pooled Engine.DetectSite.
func TestScannerMatchesLegacyOnCrawls(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		eco, err := webgen.Generate(webgen.SmallConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		cname := dnssim.NewClassifier(eco.Zone)
		eng, err := NewEngine(eco.Persona, cname, Config{})
		if err != nil {
			t.Fatal(err)
		}
		legacy := LegacyFor(eng)
		ds := crawlDataset(t, eco)

		sc := eng.NewScanner()
		total := 0
		for _, c := range ds.Successes() {
			want := legacy.DetectSite(c.Domain, c.Records)
			total += len(want)
			if got := sc.DetectSite(c.Domain, c.Records); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d, site %s: serial scanner diverges:\nlegacy:  %s\nscanner: %s",
					seed, c.Domain, mustJSON(t, want), mustJSON(t, got))
			}
			if got := eng.DetectSite(c.Domain, c.Records); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d, site %s: pooled engine diverges", seed, c.Domain)
			}
		}
		if total == 0 {
			t.Fatalf("seed %d: crawl produced no leaks; differential is vacuous", seed)
		}
	}
}

// TestDecodeDetectMatchesLegacy pins the A3 migration: the scanner's
// DecodeDetect output is byte-identical to the legacy implementation.
func TestDecodeDetectMatchesLegacy(t *testing.T) {
	eco, err := webgen.Generate(webgen.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), Config{
		Candidates: pii.CandidateConfig{
			MaxDepth:   1,
			Transforms: []string{"md5", "sha1", "sha256", "sha512", "sha3_256", "ripemd_160"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	legacy := LegacyFor(eng)
	sc := eng.NewScanner()
	ds := crawlDataset(t, eco)
	compared := 0
	for _, c := range ds.Successes() {
		for i := range c.Records {
			want := legacy.DecodeDetect(c.Domain, &c.Records[i], 2)
			got := sc.DecodeDetect(c.Domain, &c.Records[i], 2)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("site %s record %d: DecodeDetect diverges:\nlegacy:  %s\nscanner: %s",
					c.Domain, i, mustJSON(t, want), mustJSON(t, got))
			}
			compared += len(got)
		}
	}
	if compared == 0 {
		t.Fatal("DecodeDetect found nothing; differential is vacuous")
	}
}

// edgeEngine compiles a full default engine for the hand-built edge-case
// records, with a CNAME zone for the cloaking cases.
func edgeEngine(t *testing.T) *Engine {
	t.Helper()
	zone := dnssim.NewZone()
	zone.AddCNAME("smetrics.shop.example.com", "shopexample.sc.omtrdc.net")
	eng, err := NewEngine(pii.Default(), dnssim.NewClassifier(zone), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPrefilterEdgeCases drives the records that stress the fast path's
// superset argument: tokens hidden behind percent-encoding on every
// channel, '+' in paths, escaped JSON, malformed query pairs. Each must
// match the legacy detector exactly — and the leaky ones must actually
// leak, so a prefilter false negative cannot hide.
func TestPrefilterEdgeCases(t *testing.T) {
	eng := edgeEngine(t)
	sc := eng.NewScanner()
	email := pii.Default().Email
	enc := url.QueryEscape(email)
	site := "shop.example.com"

	cases := []struct {
		name string
		rec  httpmodel.Record
		leak bool // must produce at least one leak (guards vacuous passes)
	}{
		{"query-encoded", httpmodel.Record{Request: httpmodel.Request{
			URL: "https://t.adnxs.com/c?e=" + enc + "&v=2",
		}}, true},
		{"path-encoded", httpmodel.Record{Request: httpmodel.Request{
			URL: "https://t.adnxs.com/u/" + strings.Replace(email, "@", "%40", 1) + "/pix",
		}}, true},
		{"referer-encoded", httpmodel.Record{Request: httpmodel.Request{
			URL:     "https://t.adnxs.com/seg?add=1",
			Headers: map[string]string{"Referer": "https://www.shop.example.com/s?e=" + enc},
		}}, true},
		{"cookie-encoded", httpmodel.Record{Request: httpmodel.Request{
			URL:     "https://t.adnxs.com/sync",
			Cookies: []httpmodel.Cookie{{Name: "uid", Value: enc, Domain: "adnxs.com"}},
		}}, true},
		{"form-encoded", httpmodel.Record{Request: httpmodel.Request{
			URL:      "https://t.adnxs.com/collect",
			Body:     []byte("e=" + enc + "&v=2"),
			BodyType: "application/x-www-form-urlencoded",
		}}, true},
		{"json-escaped", httpmodel.Record{Request: httpmodel.Request{
			URL:      "https://t.adnxs.com/events",
			Body:     []byte(`{"email":"` + strings.Replace(email, "@", `\u0040`, 1) + `"}`),
			BodyType: "application/json",
		}}, true},
		{"json-clean", httpmodel.Record{Request: httpmodel.Request{
			URL:      "https://t.adnxs.com/events",
			Body:     []byte(`{"event":"pageview","n":3}`),
			BodyType: "application/json",
		}}, false},
		{"malformed-query-pair", httpmodel.Record{Request: httpmodel.Request{
			// The %zz pair kills the whole-query decode; u.Query() still
			// yields the e pair, so the leak must survive.
			URL: "https://t.adnxs.com/c?bad=%zz&e=" + enc,
		}}, true},
		{"malformed-path", httpmodel.Record{Request: httpmodel.Request{
			// url.Parse rejects the path escape, so Host() is empty and
			// the whole record is receiver-less — even the referer is
			// skipped. The authority substring matches earlier t.adnxs.com
			// records, so this also proves the receiver memo self-keys
			// unparseable URLs instead of serving the cached receiver.
			URL:     "https://t.adnxs.com/p%zz/x",
			Headers: map[string]string{"Referer": "https://www.shop.example.com/s?e=" + email},
		}}, false},
		{"clean", httpmodel.Record{Request: httpmodel.Request{
			URL:     "https://t.adnxs.com/ping?v=2&cb=123456",
			Cookies: []httpmodel.Cookie{{Name: "uid", Value: "a1b2c3d4e5", Domain: "adnxs.com"}},
		}}, false},
		{"first-party", httpmodel.Record{Request: httpmodel.Request{
			URL: "https://www.shop.example.com/account?e=" + enc,
		}}, false},
		{"cname-cloaked", httpmodel.Record{Request: httpmodel.Request{
			URL: "https://smetrics.shop.example.com/b/ss?mid=" + enc,
		}}, true},
		{"unparseable-url", httpmodel.Record{Request: httpmodel.Request{
			URL: "://bad url\x7f?e=" + enc,
		}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leaks := checkRecord(t, sc, site, &tc.rec)
			if tc.leak && len(leaks) == 0 {
				t.Errorf("expected a leak, got none")
			}
			if !tc.leak && len(leaks) != 0 {
				t.Errorf("expected no leaks, got %s", mustJSON(t, leaks))
			}
		})
	}
}

// TestPrefilterPlusInPath pins the subtlest fast-path case: a token
// containing a literal '+' percent-encoded into a URL path. Only a
// path-mode decode (where '+' stays literal) reconstructs it; a
// query-mode decode of the path would corrupt '+' to space and the
// prefilter would clear a record the legacy detector flags.
func TestPrefilterPlusInPath(t *testing.T) {
	eng := edgeEngine(t)
	var tok string
	for _, cand := range eng.Candidates().Tokens() {
		if strings.Contains(cand.Value, "+") && pathSafe(cand.Value) {
			tok = cand.Value
			break
		}
	}
	if tok == "" {
		t.Skip("no '+'-bearing path-safe candidate token in the default persona")
	}
	// Percent-encode one character so the raw URL scan cannot see the
	// token, leaving the '+' literal so only path-mode decoding works.
	mangled := "%" + hexByte(tok[0]) + tok[1:]
	rec := httpmodel.Record{Request: httpmodel.Request{
		URL: "https://t.adnxs.com/p/" + mangled + "/x",
	}}
	sc := eng.NewScanner()
	leaks := checkRecord(t, sc, "shop.example.com", &rec)
	if len(leaks) == 0 {
		t.Fatalf("token %q in path not detected", tok)
	}
}

func hexByte(b byte) string {
	const hexdig = "0123456789ABCDEF"
	return string([]byte{hexdig[b>>4], hexdig[b&0xf]})
}

// pathSafe reports whether the token can sit verbatim in a URL path
// segment: printable ASCII with no URL delimiters or escapes, so
// url.Parse keeps it intact.
func pathSafe(v string) bool {
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c <= ' ' || c >= 0x7f || c == '/' || c == '?' || c == '#' || c == '%' {
			return false
		}
	}
	return true
}

// TestReceiverMemoAcrossSites: the host→receiver memo is keyed per site
// (classification depends on the visited site), so the same endpoint
// must be reclassified when the scanner moves to another site — and when
// it returns to the first.
func TestReceiverMemoAcrossSites(t *testing.T) {
	eng := edgeEngine(t)
	sc := eng.NewScanner()
	email := pii.Default().Email
	rec := func() httpmodel.Record {
		return httpmodel.Record{Request: httpmodel.Request{
			URL: "https://www.shop.example.com/collect?e=" + url.QueryEscape(email),
		}}
	}
	// Under shop.example.com the host is first-party: no leak.
	r1 := rec()
	if leaks := checkRecord(t, sc, "shop.example.com", &r1); len(leaks) != 0 {
		t.Fatalf("first-party leaked: %s", mustJSON(t, leaks))
	}
	// Under another site the same host is a third party: leak.
	r2 := rec()
	if leaks := checkRecord(t, sc, "other.example.org", &r2); len(leaks) == 0 {
		t.Fatal("third-party request not detected after site switch")
	}
	// And back: the memo from the second site must not linger.
	r3 := rec()
	if leaks := checkRecord(t, sc, "shop.example.com", &r3); len(leaks) != 0 {
		t.Fatalf("stale memo after returning to first site: %s", mustJSON(t, leaks))
	}
}

// TestEngineBuildCache pins the shared-compile contract: a second engine
// for the same (persona, config) reuses the first's candidate set
// without another BuildCandidates call, and config defaulting
// normalizes into one cache slot.
func TestEngineBuildCache(t *testing.T) {
	p := pii.Default()
	e1, err := NewEngine(p, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	builds := pii.CandidateBuilds()
	// Same config, explicit defaults, and a second zero config must all
	// share e1's compile.
	for _, cfg := range []Config{
		{},
		{Candidates: pii.CandidateConfig{MaxDepth: 2}},
		{Candidates: pii.CandidateConfig{MaxDepth: 2, MinTokenLen: 8}},
	} {
		e, err := NewEngine(p, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !e.FromCache() {
			t.Errorf("config %+v: engine not served from cache", cfg)
		}
		if e.Candidates() != e1.Candidates() {
			t.Errorf("config %+v: cache returned a different candidate set", cfg)
		}
	}
	if got := pii.CandidateBuilds(); got != builds {
		t.Errorf("cache hits still compiled: %d builds, want %d", got, builds)
	}
	// A different config compiles fresh.
	e2, err := NewEngine(p, nil, Config{Candidates: pii.CandidateConfig{MaxDepth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Candidates() == e1.Candidates() {
		t.Error("distinct configs share a candidate set")
	}
}

// TestScannerNoLeakPathAllocsZero is the allocation budget: after
// warm-up, scanning a clean record allocates nothing, while the legacy
// detector pays Surfaces + conversions on every record. The ≥10×
// reduction claim follows from zero vs legacy's double digits.
func TestScannerNoLeakPathAllocsZero(t *testing.T) {
	eng := edgeEngine(t)
	sc := eng.NewScanner()
	legacy := LegacyFor(eng)
	rec := httpmodel.Record{Request: httpmodel.Request{
		URL:     "https://t.adnxs.com/ping?v=2&cb=123456&sess=zZ9yY8xX7",
		Headers: map[string]string{"Referer": "https://www.shop.example.com/cart"},
		Cookies: []httpmodel.Cookie{
			{Name: "uid", Value: "a1b2c3d4e5f6", Domain: "adnxs.com"},
			{Name: "sess", Value: "deadbeef00", Domain: "adnxs.com"},
		},
		Body:     []byte("v=2&cb=654321"),
		BodyType: "application/x-www-form-urlencoded",
	}}
	site := "shop.example.com"
	if leaks := checkRecord(t, sc, site, &rec); len(leaks) != 0 {
		t.Fatalf("fixture record unexpectedly leaks: %s", mustJSON(t, leaks))
	}

	scannerAllocs := testing.AllocsPerRun(200, func() {
		sc.DetectRecord(site, &rec)
	})
	legacyAllocs := testing.AllocsPerRun(200, func() {
		legacy.DetectRecord(site, &rec)
	})
	if scannerAllocs != 0 {
		t.Errorf("scanner no-leak path allocates %.1f allocs/op, want 0", scannerAllocs)
	}
	if legacyAllocs < 10 {
		t.Logf("legacy no-leak path allocates only %.1f allocs/op; fixture lost its bite", legacyAllocs)
	}
	if legacyAllocs < 10*(scannerAllocs+1) {
		t.Errorf("allocation reduction below 10x: scanner %.1f vs legacy %.1f", scannerAllocs, legacyAllocs)
	}
}

// TestUnescapeIntoMatchesStdlib pins the scratch decoder against
// net/url's QueryUnescape/PathUnescape on both outcomes.
func TestUnescapeIntoMatchesStdlib(t *testing.T) {
	cases := []string{
		"", "plain", "a+b", "a%20b", "a%2Bb", "%40", "100%", "%", "%z", "%zz",
		"%4", "a%ZZb", "trailing%2", "%2F%3f%23", "mixed+%41+text",
		"jos\u00e9%C3%A9", "%00", "a%0ab",
	}
	for _, s := range cases {
		wantQ, errQ := url.QueryUnescape(s)
		got, ok := unescapeInto(nil, s, true)
		if ok != (errQ == nil) {
			t.Errorf("query %q: ok=%v, stdlib err=%v", s, ok, errQ)
		} else if ok && string(got) != wantQ {
			t.Errorf("query %q: got %q, want %q", s, got, wantQ)
		}
		wantP, errP := url.PathUnescape(s)
		got, ok = unescapeInto(nil, s, false)
		if ok != (errP == nil) {
			t.Errorf("path %q: ok=%v, stdlib err=%v", s, ok, errP)
		} else if ok && string(got) != wantP {
			t.Errorf("path %q: got %q, want %q", s, got, wantP)
		}
	}
}

// TestAuthorityKey pins the memo key derivation against url.Parse's
// authority delimiting.
func TestAuthorityKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"https://a.b/c?d=1#e", "a.b"},
		{"https://a.b:8443/c", "a.b:8443"},
		{"https://u@a.b/c", "u@a.b"},
		{"https://a.b", "a.b"},
		{"https://a.b?x=1", "a.b"},
		{"https://a.b#f", "a.b"},
		{"/relative/path", "/relative/path"},
		{"mailto:a@b", "mailto:a@b"},
		{"a?b://c", "a?b://c"},     // invalid scheme: self-keyed
		{"a b://c/d", "a b://c/d"}, // invalid scheme: self-keyed
		// Escapes outside the query and control bytes decide parse
		// success, so those URLs are self-keyed; query escapes are not
		// validated by url.Parse, so they still share the authority key.
		{"https://a.b/p%zz/x", "https://a.b/p%zz/x"},
		{"https://a.b/u%40h/x", "https://a.b/u%40h/x"},
		{"https://a.b/c#f%zz", "https://a.b/c#f%zz"},
		{"https://a.b/c\x7f", "https://a.b/c\x7f"},
		{"https://a.b/c?e=%40", "a.b"},
	}
	for _, tc := range cases {
		if got := authorityKey(tc.in); got != tc.want {
			t.Errorf("authorityKey(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestFloatRenderable pins the compile-time JSON-number shape check that
// keeps the default persona's tokens (postal codes, phone numbers, birth
// dates) on the fast path.
func TestFloatRenderable(t *testing.T) {
	yes := []string{"0", "12345678", "-1", "1.5", "1.5e+07", "1e-05", "-1.7976931348623157e+308"}
	no := []string{"", "101-8430", "1988-05-21", "+81355550123", "1.5e", "1.", ".5", "1e+", "abc", "1-2", "e7",
		"12345678901234567890123456789"}
	for _, s := range yes {
		if !floatRenderable(s) {
			t.Errorf("floatRenderable(%q) = false, want true", s)
		}
	}
	for _, s := range no {
		if floatRenderable(s) {
			t.Errorf("floatRenderable(%q) = true, want false", s)
		}
	}
}

// TestEngineConcurrentUse drives one shared Engine from many goroutines
// through the pooled DetectSite — the -race CI lane's target.
func TestEngineConcurrentUse(t *testing.T) {
	eng := edgeEngine(t)
	email := pii.Default().Email
	rec := httpmodel.Record{Request: httpmodel.Request{
		URL: "https://t.adnxs.com/c?e=" + url.QueryEscape(email),
	}}
	want := eng.DetectSite("shop.example.com", []httpmodel.Record{rec})
	done := make(chan []core.Leak, 8)
	for g := 0; g < 8; g++ {
		go func() {
			var last []core.Leak
			for i := 0; i < 50; i++ {
				last = eng.DetectSite("shop.example.com", []httpmodel.Record{rec})
			}
			done <- last
		}()
	}
	for g := 0; g < 8; g++ {
		if got := <-done; !reflect.DeepEqual(want, got) {
			t.Errorf("concurrent DetectSite diverged:\nwant %s\ngot  %s", mustJSON(t, want), mustJSON(t, got))
		}
	}
}
