package psl

import (
	"testing"

	"piileak/internal/tranco"
)

func TestPublicSuffix(t *testing.T) {
	cases := map[string]string{
		"example.com":         "com",
		"www.example.com":     "com",
		"example.co.jp":       "co.jp",
		"shop.example.co.uk":  "co.uk",
		"com":                 "com",
		"unknown-tld-host.zz": "zz", // fallback: last label
	}
	for in, want := range cases {
		if got := PublicSuffix(in); got != want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWildcardAndException(t *testing.T) {
	// *.ck makes foo.ck a public suffix; !www.ck carves out www.ck.
	if got := PublicSuffix("shop.foo.ck"); got != "foo.ck" {
		t.Errorf("PublicSuffix(shop.foo.ck) = %q, want foo.ck", got)
	}
	if got := PublicSuffix("www.ck"); got != "ck" {
		t.Errorf("PublicSuffix(www.ck) = %q, want ck", got)
	}
	e, err := ETLDPlusOne("www.ck")
	if err != nil || e != "www.ck" {
		t.Errorf("ETLDPlusOne(www.ck) = %q, %v; want www.ck", e, err)
	}
	e, err = ETLDPlusOne("a.b.foo.ck")
	if err != nil || e != "b.foo.ck" {
		t.Errorf("ETLDPlusOne(a.b.foo.ck) = %q, %v; want b.foo.ck", e, err)
	}
}

func TestETLDPlusOne(t *testing.T) {
	cases := map[string]string{
		"example.com":            "example.com",
		"a.b.example.com":        "example.com",
		"cdn.shop.example.co.jp": "example.co.jp",
	}
	for in, want := range cases {
		got, err := ETLDPlusOne(in)
		if err != nil {
			t.Errorf("ETLDPlusOne(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ETLDPlusOne(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestETLDPlusOneErrors(t *testing.T) {
	for _, in := range []string{"com", "co.jp", "", "a.com.."} {
		if _, err := ETLDPlusOne(in); err == nil {
			t.Errorf("ETLDPlusOne(%q) succeeded, want error", in)
		}
	}
}

func TestSameSite(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"www.example.com", "api.example.com", true},
		{"example.com", "example.com", true},
		{"example.com", "tracker.net", false},
		{"shop.example.co.jp", "mail.example.co.jp", true},
		{"example.co.jp", "example.jp", false},
		{"com", "com", false},
	}
	for _, c := range cases {
		if got := Default().SameSite(c.a, c.b); got != c.want {
			t.Errorf("SameSite(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIsThirdParty(t *testing.T) {
	if Default().IsThirdParty("shop.example.com", "cdn.example.com") {
		t.Error("same-site CDN flagged as third party")
	}
	if !Default().IsThirdParty("shop.example.com", "pixel.tracker.net") {
		t.Error("tracker not flagged as third party")
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"WWW.Example.COM":  "www.example.com",
		"example.com.":     "example.com",
		"example.com:8080": "example.com",
		"  example.com ":   "example.com",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseCustomList(t *testing.T) {
	l, err := Parse("// comment\n\ncom\nspecial.test\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := l.PublicSuffix("a.special.test"); got != "special.test" {
		t.Errorf("custom list PublicSuffix = %q", got)
	}
}

func TestParseMalformed(t *testing.T) {
	if _, err := Parse("bad rule with spaces"); err == nil {
		t.Error("Parse accepted a malformed rule")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on malformed input")
		}
	}()
	MustParse("bad rule here")
}

// privatePSL is a subset of the real PSL's private section: hosting
// providers whose customers are mutually third-party.
const privatePSL = `
// ---- Private section (subset) ----
herokuapp.com
github.io
blogspot.com
cloudfront.net
azurewebsites.net
web.app
firebaseapp.com
`

func TestPrivateSectionList(t *testing.T) {
	l := MustParse(defaultPSL + privatePSL)
	if got := l.PublicSuffix("example.herokuapp.com"); got != "herokuapp.com" {
		t.Errorf("PublicSuffix(example.herokuapp.com) = %q", got)
	}
	if got := l.PublicSuffix("user.github.io"); got != "github.io" {
		t.Errorf("PublicSuffix(user.github.io) = %q", got)
	}
	// Different customers of one hosting suffix are different sites.
	if l.SameSite("a.herokuapp.com", "b.herokuapp.com") {
		t.Error("hosting customers considered same-site")
	}
	// The ICANN-only default treats herokuapp.com as one site, the
	// granularity the paper reports receivers at.
	e, err := ETLDPlusOne("shopwidgets.herokuapp.com")
	if err != nil || e != "herokuapp.com" {
		t.Errorf("default ETLDPlusOne = %q, %v", e, err)
	}
}

func TestLongestRuleWins(t *testing.T) {
	// Both "jp" and "co.jp" are rules; co.jp must win for x.co.jp.
	if got := PublicSuffix("x.co.jp"); got != "co.jp" {
		t.Errorf("PublicSuffix(x.co.jp) = %q, want co.jp", got)
	}
}

// TestParseRuleOrderIrrelevant pins that a name carrying two kinds of
// rule keeps both, whichever line comes first: an exception beats a
// normal rule or a bare wildcard match of its own name, and a normal
// rule does not hide a wildcard under the same name.
func TestParseRuleOrderIrrelevant(t *testing.T) {
	for _, c := range []struct {
		first, second string
		host, suffix  string
		etld1         string // "" when ETLDPlusOne must err
	}{
		{"ck", "*.ck", "a.b.ck", "b.ck", "a.b.ck"},
		{"ck", "*.ck", "ck", "ck", ""},
		{"!www.ck", "www.ck", "www.ck", "ck", "www.ck"},
		{"!www.ck", "www.ck", "x.www.ck", "ck", "www.ck"},
		{"!www.ck", "*.www.ck", "www.ck", "ck", "www.ck"},
	} {
		for _, text := range []string{c.first + "\n" + c.second, c.second + "\n" + c.first} {
			l := MustParse(text)
			if got := l.PublicSuffix(c.host); got != c.suffix {
				t.Errorf("list %q: PublicSuffix(%q) = %q, want %q", text, c.host, got, c.suffix)
			}
			got, err := l.ETLDPlusOne(c.host)
			if (err == nil) != (c.etld1 != "") || got != c.etld1 {
				t.Errorf("list %q: ETLDPlusOne(%q) = %q, %v; want %q", text, c.host, got, err, c.etld1)
			}
		}
	}
}

// TestETLDPlusOneAllocs pins the walk at zero allocations for an
// already lower-case host: the result is a substring of the host.
func TestETLDPlusOneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	hosts := []string{"www.example.com", "cdn.shop.example.co.jp", "x.y.www.ck", "a.b.ck", "host.unknown.zz"}
	allocs := testing.AllocsPerRun(100, func() {
		for _, h := range hosts {
			sinkString, _ = ETLDPlusOne(h)
		}
	})
	if allocs != 0 {
		t.Errorf("ETLDPlusOne allocates %.1f times per %d hosts, want 0", allocs, len(hosts))
	}
}

var sinkString string

// tailHosts returns the request hosts of n universe-tail site visits:
// the site's own host for the document and its first-party asset, then
// the hosts of the benign tags tail sites embed.
func tailHosts(n int) []string {
	var hosts []string
	for r := 0; r < n; r++ {
		own := "www." + tranco.TailEntry(2021, 10_000+r).Domain
		hosts = append(hosts, own, own, "cdn.jscdn-static.net")
		if r%3 == 0 {
			hosts = append(hosts, "fonts.webfonts-host.org", "www.facebook.com")
		}
	}
	return hosts
}

// BenchmarkETLDPlusOne times one registrable-domain lookup over the
// universe tail's request hosts, against the label-splitting oracle.
func BenchmarkETLDPlusOne(b *testing.B) {
	hosts := tailHosts(1000)
	l := Default()
	for _, bc := range []struct {
		name string
		fn   func(string) (string, error)
	}{
		{"walk", l.ETLDPlusOne},
		{"oracle", func(h string) (string, error) { return oracleETLDPlusOne(l, h) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkString, _ = bc.fn(hosts[i%len(hosts)])
			}
		})
	}
}
