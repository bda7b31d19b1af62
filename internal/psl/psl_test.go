package psl

import "testing"

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
	if IsThirdParty("shop.example.com", "cdn.example.com") {
		t.Error("same-site CDN flagged as third party")
	}
	if !IsThirdParty("shop.example.com", "pixel.tracker.net") {
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
