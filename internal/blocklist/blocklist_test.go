package blocklist

import (
	"strings"
	"testing"
)

func engine(t *testing.T, rules ...string) *Engine {
	t.Helper()
	l, err := ParseList("test", strings.Join(rules, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(l)
}

func req(url string) RequestInfo {
	return RequestInfo{URL: url, PageHost: "site.com", Type: TypeScript, ThirdParty: true}
}

func TestDomainAnchor(t *testing.T) {
	e := engine(t, "||tracker.net^")
	cases := map[string]bool{
		"https://tracker.net/p.js":          true,
		"https://pixel.tracker.net/x":       true,
		"http://tracker.net":                true,
		"https://tracker.net.evil.com/p.js": false,
		"https://nottracker.net/p.js":       false,
		"https://site.com/tracker.net/p":    false,
	}
	for url, want := range cases {
		if got := e.ShouldBlock(req(url)); got != want {
			t.Errorf("||tracker.net^ vs %s = %v, want %v", url, got, want)
		}
	}
}

func TestStartEndAnchors(t *testing.T) {
	e := engine(t, "|https://ads.example.com/banner|")
	if !e.ShouldBlock(req("https://ads.example.com/banner")) {
		t.Error("exact anchored URL not blocked")
	}
	if e.ShouldBlock(req("https://ads.example.com/banner/extra")) {
		t.Error("end anchor ignored")
	}
	if e.ShouldBlock(req("http://evil.com/https://ads.example.com/banner")) {
		t.Error("start anchor ignored")
	}
}

func TestWildcardAndSeparator(t *testing.T) {
	e := engine(t, "/collect^*pii=")
	if !e.ShouldBlock(req("https://t.net/collect?pii=abc")) {
		t.Error("wildcard rule missed")
	}
	if e.ShouldBlock(req("https://t.net/collection?pii=abc")) {
		t.Error("separator ^ matched a word character")
	}
}

func TestSeparatorAtEnd(t *testing.T) {
	e := engine(t, "||t.net/path^")
	if !e.ShouldBlock(req("https://t.net/path")) {
		t.Error("^ should match end of URL")
	}
	if !e.ShouldBlock(req("https://t.net/path?q=1")) {
		t.Error("^ should match ?")
	}
	if e.ShouldBlock(req("https://t.net/pathology")) {
		t.Error("^ matched a letter")
	}
}

func TestPlainSubstring(t *testing.T) {
	e := engine(t, "/ads/")
	if !e.ShouldBlock(req("https://cdn.com/ads/banner.png")) {
		t.Error("substring rule missed")
	}
	if e.ShouldBlock(req("https://cdn.com/loads/banner.png")) {
		t.Error("substring rule over-matched")
	}
}

func TestCaseInsensitive(t *testing.T) {
	e := engine(t, "||Tracker.NET^")
	if !e.ShouldBlock(req("https://TRACKER.net/x")) {
		t.Error("matching is not case-insensitive")
	}
}

func TestExceptionOverridesBlock(t *testing.T) {
	e := engine(t, "||tracker.net^", "@@||tracker.net/allowed^")
	if e.ShouldBlock(req("https://tracker.net/allowed?x=1")) {
		t.Error("exception did not override block")
	}
	if !e.ShouldBlock(req("https://tracker.net/other")) {
		t.Error("block rule lost entirely")
	}
	d := e.Match(req("https://tracker.net/allowed"))
	if d.Blocked || d.Rule == nil || !d.Rule.Exception {
		t.Errorf("Match decision = %+v", d)
	}
}

func TestThirdPartyOption(t *testing.T) {
	e := engine(t, "||widgets.net^$third-party")
	ri := req("https://widgets.net/w.js")
	if !e.ShouldBlock(ri) {
		t.Error("third-party request not blocked")
	}
	ri.ThirdParty = false
	if e.ShouldBlock(ri) {
		t.Error("first-party request blocked by $third-party rule")
	}

	e2 := engine(t, "||widgets.net^$~third-party")
	if e2.ShouldBlock(req("https://widgets.net/w.js")) {
		t.Error("$~third-party blocked a third-party request")
	}
}

func TestDomainOption(t *testing.T) {
	e := engine(t, "||tracker.net^$domain=shop.com|~mail.shop.com")
	ri := req("https://tracker.net/x")
	ri.PageHost = "www.shop.com"
	if !e.ShouldBlock(ri) {
		t.Error("domain= did not match subdomain of shop.com")
	}
	ri.PageHost = "mail.shop.com"
	if e.ShouldBlock(ri) {
		t.Error("~mail.shop.com exclusion ignored")
	}
	ri.PageHost = "other.com"
	if e.ShouldBlock(ri) {
		t.Error("domain= matched unrelated page host")
	}
}

func TestTypeOptions(t *testing.T) {
	e := engine(t, "||tracker.net^$script,image")
	ri := req("https://tracker.net/x")
	ri.Type = TypeScript
	if !e.ShouldBlock(ri) {
		t.Error("script not blocked")
	}
	ri.Type = TypeXHR
	if e.ShouldBlock(ri) {
		t.Error("xhr blocked despite $script,image")
	}

	inv := engine(t, "||tracker.net^$~image")
	ri.Type = TypeImage
	if inv.ShouldBlock(ri) {
		t.Error("$~image blocked an image")
	}
	ri.Type = TypeScript
	if !inv.ShouldBlock(ri) {
		t.Error("$~image failed to block a script")
	}
}

// TestMixedTypeOptions pins ABP's $type semantics when positive and
// negated types meet: a rule applies when it names no positive type or
// the request's type is one of them, and the type is not negated.
func TestMixedTypeOptions(t *testing.T) {
	cases := []struct {
		rule               string
		script, image, xhr bool
	}{
		{"||x.com^$script,~image", true, false, false},
		{"||x.com^$~image", true, false, true},
		{"||x.com^$script", true, false, false},
	}
	for _, c := range cases {
		e := engine(t, c.rule)
		for typ, want := range map[ResourceType]bool{TypeScript: c.script, TypeImage: c.image, TypeXHR: c.xhr} {
			ri := req("https://x.com/t.js")
			ri.Type = typ
			if got := e.ShouldBlock(ri); got != want {
				t.Errorf("%s vs %s request = %v, want %v", c.rule, typ, got, want)
			}
		}
	}
}

func TestUnsupportedOptionSkipsRule(t *testing.T) {
	l := MustParseList("t", "||x.com^$popup\n||y.com^")
	if len(l.Rules) != 1 {
		t.Fatalf("rules = %d, want 1 (popup rule skipped)", len(l.Rules))
	}
	if l.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1", l.Skipped)
	}
}

func TestCommentsCosmeticHeadersSkipped(t *testing.T) {
	text := "[Adblock Plus 2.0]\n! comment\nsite.com##.ad-banner\n\n||real.net^\n"
	l := MustParseList("t", text)
	if len(l.Rules) != 1 {
		t.Fatalf("rules = %d, want 1", len(l.Rules))
	}
	// Header, comment, cosmetic rule, blank line, trailing blank line.
	if l.Skipped != 5 {
		t.Errorf("Skipped = %d, want 5", l.Skipped)
	}
}

func TestMultipleListsDecisionNamesList(t *testing.T) {
	el := MustParseList("easylist", "/banner.")
	ep := MustParseList("easyprivacy", "||tracker.net^")
	e := NewEngine(el, ep)
	d := e.Match(req("https://tracker.net/p"))
	if !d.Blocked || d.List != "easyprivacy" {
		t.Errorf("decision = %+v", d)
	}
}

func TestNothingMatches(t *testing.T) {
	e := engine(t, "||tracker.net^")
	d := e.Match(req("https://benign.org/app.js"))
	if d.Blocked || d.Rule != nil {
		t.Errorf("decision = %+v", d)
	}
}

func BenchmarkEngineMatch(b *testing.B) {
	var rules []string
	for i := 0; i < 200; i++ {
		rules = append(rules, "||tracker"+string(rune('a'+i%26))+".net^$third-party")
	}
	rules = append(rules, "||victim.net^")
	l := MustParseList("bench", strings.Join(rules, "\n"))
	e := NewEngine(l)
	ri := RequestInfo{URL: "https://victim.net/pixel?ud=abc", PageHost: "site.com", Type: TypeImage, ThirdParty: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.ShouldBlock(ri) {
			b.Fatal("miss")
		}
	}
}
