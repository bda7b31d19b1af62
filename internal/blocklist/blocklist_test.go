package blocklist

import (
	"strings"
	"testing"
)

func mustParse(t testing.TB, name, text string) *List {
	t.Helper()
	l, err := ParseList(name, text)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func engine(t *testing.T, rules ...string) *Engine {
	return NewEngine(mustParse(t, "test", strings.Join(rules, "\n")))
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
		if got := e.Match(req(url)).Blocked; got != want {
			t.Errorf("||tracker.net^ vs %s = %v, want %v", url, got, want)
		}
	}
}

func TestStartEndAnchors(t *testing.T) {
	e := engine(t, "|https://ads.example.com/banner|")
	if !e.Match(req("https://ads.example.com/banner")).Blocked {
		t.Error("exact anchored URL not blocked")
	}
	if e.Match(req("https://ads.example.com/banner/extra")).Blocked {
		t.Error("end anchor ignored")
	}
	if e.Match(req("http://evil.com/https://ads.example.com/banner")).Blocked {
		t.Error("start anchor ignored")
	}
}

func TestWildcardAndSeparator(t *testing.T) {
	e := engine(t, "/collect^*pii=")
	if !e.Match(req("https://t.net/collect?pii=abc")).Blocked {
		t.Error("wildcard rule missed")
	}
	if e.Match(req("https://t.net/collection?pii=abc")).Blocked {
		t.Error("separator ^ matched a word character")
	}
}

func TestSeparatorAtEnd(t *testing.T) {
	e := engine(t, "||t.net/path^")
	if !e.Match(req("https://t.net/path")).Blocked {
		t.Error("^ should match end of URL")
	}
	if !e.Match(req("https://t.net/path?q=1")).Blocked {
		t.Error("^ should match ?")
	}
	if e.Match(req("https://t.net/pathology")).Blocked {
		t.Error("^ matched a letter")
	}
}

func TestPlainSubstring(t *testing.T) {
	e := engine(t, "/ads/")
	if !e.Match(req("https://cdn.com/ads/banner.png")).Blocked {
		t.Error("substring rule missed")
	}
	if e.Match(req("https://cdn.com/loads/banner.png")).Blocked {
		t.Error("substring rule over-matched")
	}
}

func TestCaseInsensitive(t *testing.T) {
	e := engine(t, "||Tracker.NET^")
	if !e.Match(req("https://TRACKER.net/x")).Blocked {
		t.Error("matching is not case-insensitive")
	}
}

func TestExceptionOverridesBlock(t *testing.T) {
	e := engine(t, "||tracker.net^", "@@||tracker.net/allowed^")
	if e.Match(req("https://tracker.net/allowed?x=1")).Blocked {
		t.Error("exception did not override block")
	}
	if !e.Match(req("https://tracker.net/other")).Blocked {
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
	if !e.Match(ri).Blocked {
		t.Error("third-party request not blocked")
	}
	ri.ThirdParty = false
	if e.Match(ri).Blocked {
		t.Error("first-party request blocked by $third-party rule")
	}

	e2 := engine(t, "||widgets.net^$~third-party")
	if e2.Match(req("https://widgets.net/w.js")).Blocked {
		t.Error("$~third-party blocked a third-party request")
	}
}

func TestDomainOption(t *testing.T) {
	e := engine(t, "||tracker.net^$domain=shop.com|~mail.shop.com")
	ri := req("https://tracker.net/x")
	ri.PageHost = "www.shop.com"
	if !e.Match(ri).Blocked {
		t.Error("domain= did not match subdomain of shop.com")
	}
	ri.PageHost = "mail.shop.com"
	if e.Match(ri).Blocked {
		t.Error("~mail.shop.com exclusion ignored")
	}
	ri.PageHost = "other.com"
	if e.Match(ri).Blocked {
		t.Error("domain= matched unrelated page host")
	}
}

func TestTypeOptions(t *testing.T) {
	e := engine(t, "||tracker.net^$script,image")
	ri := req("https://tracker.net/x")
	ri.Type = TypeScript
	if !e.Match(ri).Blocked {
		t.Error("script not blocked")
	}
	ri.Type = TypeXHR
	if e.Match(ri).Blocked {
		t.Error("xhr blocked despite $script,image")
	}

	inv := engine(t, "||tracker.net^$~image")
	ri.Type = TypeImage
	if inv.Match(ri).Blocked {
		t.Error("$~image blocked an image")
	}
	ri.Type = TypeScript
	if !inv.Match(ri).Blocked {
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
			if got := e.Match(ri).Blocked; got != want {
				t.Errorf("%s vs %s request = %v, want %v", c.rule, typ, got, want)
			}
		}
	}
}

func TestUnsupportedOptionSkipsRule(t *testing.T) {
	l := mustParse(t, "t", "||x.com^$popup\n||y.com^")
	if len(l.Rules) != 1 {
		t.Fatalf("rules = %d, want 1 (popup rule skipped)", len(l.Rules))
	}
	if l.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1", l.Skipped)
	}
}

func TestCommentsCosmeticHeadersSkipped(t *testing.T) {
	text := "[Adblock Plus 2.0]\n! comment\nsite.com##.ad-banner\n\n||real.net^\n"
	l := mustParse(t, "t", text)
	if len(l.Rules) != 1 {
		t.Fatalf("rules = %d, want 1", len(l.Rules))
	}
	// Header, comment, cosmetic rule, blank line, trailing blank line.
	if l.Skipped != 5 {
		t.Errorf("Skipped = %d, want 5", l.Skipped)
	}
}

func TestMultipleListsDecisionNamesList(t *testing.T) {
	el := mustParse(t, "easylist", "/banner.")
	ep := mustParse(t, "easyprivacy", "||tracker.net^")
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
	l := mustParse(b, "bench", strings.Join(rules, "\n"))
	e := NewEngine(l)
	ri := RequestInfo{URL: "https://victim.net/pixel?ud=abc", PageHost: "site.com", Type: TypeImage, ThirdParty: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Match(ri).Blocked {
			b.Fatal("miss")
		}
	}
}
