package blocklist

import (
	"slices"
	"testing"
)

// FuzzParseList ensures arbitrary filter text never panics the parser
// and that every accepted rule can be matched without panicking.
func FuzzParseList(f *testing.F) {
	f.Add("||tracker.net^")
	f.Add("@@||ok.net^$third-party")
	f.Add("|https://x|\n/ads/*^\nsite.com##.x")
	f.Add("$domain=a.com|~b.com")
	f.Add("||x.com^$script,~image,domain=")
	f.Add("*")
	f.Add("^^^^")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1<<12 {
			return
		}
		l, err := ParseList("fuzz", text)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		e := NewEngine(l)
		e.Match(RequestInfo{
			URL: "https://pixel.tracker.net/p?x=1", PageHost: "site.com",
			Type: TypeImage, ThirdParty: true,
		})
	})
}

// prefilterCase is one differential case: two list texts and a request.
type prefilterCase struct {
	name                  string
	easyList, easyPrivacy string
	url, pageHost         string
	typ                   uint8 // index into fuzzTypes
	thirdParty            bool
	blocked               bool // the combined verdict, pinned by the table test
}

var fuzzTypes = []ResourceType{TypeScript, TypeImage, TypeStylesheet, TypeXHR, TypeSubdocument, TypePing, TypeDocument, TypeOther}

// prefilterCases seed FuzzMatchAgreesWithRegexp and drive
// TestMatchAgreesWithRegexp: case folding on either side, the
// non-ASCII folds (U+212A KELVIN SIGN to 'k', U+017F LONG S to 's') in
// the URL and in the rule, anchors, a mid-pattern '|', bodies with no
// literal at all and a '$' the option split leaves in the body.
var prefilterCases = []prefilterCase{
	{"upper-case URL", "||tracker.net^", "", "HTTPS://PIXEL.TRACKER.NET/P?X=1", "site.com", 1, true, true},
	{"upper-case rule", "||Tracker.NET/Pixel^", "", "https://tracker.net/pixel?x=1", "site.com", 1, true, true},
	{"kelvin sign in URL", "||kelvin.net^", "", "https://Kelvin.net/p", "site.com", 0, true, true},
	{"long s in URL", "", "/ads/", "https://cdn.com/adſ/x.png", "site.com", 1, true, true},
	{"kelvin sign in rule", "||Kelvin.net^", "", "https://kelvin.net/p", "site.com", 0, true, true},
	{"long s in rule", "/adſ/", "", "https://cdn.com/ADS/x.png", "site.com", 1, true, true},
	{"long s in rule and URL", "/adſ/", "", "https://cdn.com/adſ/x.png", "site.com", 1, true, true},
	{"start and end anchors", "|https://ads.example.com/banner|", "", "https://ads.example.com/banner", "site.com", 1, true, true},
	{"end anchor rejects a longer URL", "|https://ads.example.com/banner|", "", "https://ads.example.com/banner/x", "site.com", 1, true, false},
	{"start anchor rejects an embedded URL", "|https://ads.example.com/", "", "http://evil.com/https://ads.example.com/", "site.com", 1, true, false},
	{"mid-pattern bar", "ads|track", "", "https://x.com/ads|track?u=1", "site.com", 3, false, true},
	{"mid-pattern bar is literal", "ads|track", "", "https://x.com/ads", "site.com", 3, false, false},
	{"star-only body", "*", "", "https://anything.org/", "site.com", 7, false, true},
	{"caret-only body", "^", "", "https://anything.org/", "site.com", 7, false, true},
	{"star and caret body", "*^*^", "", "https://anything.org/", "site.com", 7, false, true},
	{"dollar inside the body", "/path$x/y", "", "https://a.com/PATH$X/y", "site.com", 0, true, true},
	{"dollar inside the body absent", "/path$x/y", "", "https://a.com/pathx/y", "site.com", 0, true, false},
	{"wildcard and separator", "", "/collect^*pii=", "https://t.net/collect?PII=abc", "site.com", 3, true, true},
	{"literal absent", "||tracker.net^$third-party", "/banner-ads/", "https://benign.org/app.js", "site.com", 0, true, false},
	{"exception in the other list", "@@||webfonts-host.org^$stylesheet", "||webfonts-host.org^", "https://webfonts-host.org/f.css", "site.com", 2, true, false},
	{"exception saves in its own list", "", "||tracker.net^\n@@||tracker.net/ok^", "https://tracker.net/OK?x=1", "site.com", 1, true, false},
	{"mixed type options", "||x.com^$script,~image", "", "https://x.com/t.js", "site.com", 0, true, true},
	{"domain option", "||tracker.net^$domain=shop.com|~mail.shop.com", "", "https://tracker.net/x", "www.shop.com", 0, true, true},
	{"third-party option", "||widgets.net^$~third-party", "", "https://widgets.net/w.js", "site.com", 0, true, false},
}

// refMatches is the prefilter-free oracle: a rule matches when all of
// its options hold and its regexp matches the URL.
func refMatches(r *Rule, ri RequestInfo) bool {
	if r.hasTP && ri.ThirdParty != r.tpValue {
		return false
	}
	if len(r.domains) > 0 && !r.domainAllowed(ri.PageHost) {
		return false
	}
	if len(r.types) > 0 && !slices.Contains(r.types, ri.Type) {
		return false
	}
	if slices.Contains(r.notTypes, ri.Type) {
		return false
	}
	return r.re.MatchString(ri.URL)
}

// refMatch is Engine.Match over refMatches: every rule of every list
// is evaluated, the first matching exception saves the request and the
// first matching block rule otherwise blocks it.
func refMatch(lists []*List, ri RequestInfo) Decision {
	var d Decision
	for _, l := range lists {
		for i := range l.Rules {
			r := &l.Rules[i]
			if !refMatches(r, ri) {
				continue
			}
			if r.Exception {
				return Decision{Rule: r, List: l.Name}
			}
			if d.Rule == nil {
				d = Decision{Blocked: true, Rule: r, List: l.Name}
			}
		}
	}
	return d
}

// checkAgreesWithRegexp asserts that Engine.Match (verdict and deciding
// rule), each list's Scan and the verdict derived from the two scans
// agree with the oracle. It reports whether both lists parsed and, if
// so, the engine's verdict.
func checkAgreesWithRegexp(t *testing.T, c prefilterCase) (blocked, ok bool) {
	t.Helper()
	el, err := ParseList("easylist", c.easyList)
	if err != nil {
		return false, false
	}
	ep, err := ParseList("easyprivacy", c.easyPrivacy)
	if err != nil {
		return false, false
	}
	ri := RequestInfo{URL: c.url, PageHost: c.pageHost, Type: fuzzTypes[int(c.typ)%len(fuzzTypes)], ThirdParty: c.thirdParty}
	lists := []*List{el, ep}
	got, want := NewEngine(lists...).Match(ri), refMatch(lists, ri)
	if got != want {
		t.Fatalf("Match(%+v) = %+v, oracle %+v", ri, got, want)
	}
	var anyBlock, anyException bool
	for _, l := range lists {
		block, exception := l.Scan(ri)
		wantBlock, wantException := false, false
		for i := range l.Rules {
			if refMatches(&l.Rules[i], ri) {
				if l.Rules[i].Exception {
					wantException = true
				} else {
					wantBlock = true
				}
			}
		}
		if block != wantBlock || exception != wantException {
			t.Fatalf("%s.Scan(%+v) = (%v, %v), oracle (%v, %v)", l.Name, ri, block, exception, wantBlock, wantException)
		}
		anyBlock, anyException = anyBlock || block, anyException || exception
	}
	if derived := anyBlock && !anyException; derived != got.Blocked {
		t.Fatalf("verdict derived from the scans = %v, Match = %v", derived, got.Blocked)
	}
	return got.Blocked, true
}

// FuzzMatchAgreesWithRegexp checks the literal prefilter against the
// regexp it guards: over arbitrary lists and requests, matching with
// the prefilter must reach the verdict and deciding rule the oracle
// reaches by evaluating every rule.
func FuzzMatchAgreesWithRegexp(f *testing.F) {
	for _, c := range prefilterCases {
		f.Add(c.easyList, c.easyPrivacy, c.url, c.pageHost, c.typ, c.thirdParty)
	}
	f.Fuzz(func(t *testing.T, easyList, easyPrivacy, url, pageHost string, typ uint8, thirdParty bool) {
		if len(easyList)+len(easyPrivacy) > 1<<12 || len(url) > 1<<12 {
			return
		}
		checkAgreesWithRegexp(t, prefilterCase{
			easyList: easyList, easyPrivacy: easyPrivacy,
			url: url, pageHost: pageHost, typ: typ, thirdParty: thirdParty,
		})
	})
}

// TestMatchAgreesWithRegexp runs the fuzzer's seed cases as a table,
// pinning each combined verdict besides the agreement.
func TestMatchAgreesWithRegexp(t *testing.T) {
	for _, c := range prefilterCases {
		t.Run(c.name, func(t *testing.T) {
			blocked, ok := checkAgreesWithRegexp(t, c)
			if !ok {
				t.Fatal("lists failed to parse")
			}
			if blocked != c.blocked {
				t.Errorf("blocked = %v, want %v", blocked, c.blocked)
			}
		})
	}
}
