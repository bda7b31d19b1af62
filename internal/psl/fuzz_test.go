package psl

import (
	"strings"
	"testing"
)

// FuzzPublicSuffix is differential: on the default list, PublicSuffix,
// ETLDPlusOne (its value and whether it errs) and SameSite must agree
// with the label-splitting oracle for any host string, and an
// ETLDPlusOne result must end with the public suffix. The default list
// gives no name two kinds of rule, so the oracle holds on it.
func FuzzPublicSuffix(f *testing.F) {
	f.Add("www.example.com")
	f.Add("a.b.c.co.jp")
	f.Add("..")
	f.Add("")
	f.Add("x.ck")
	f.Add("www.ck")
	f.Add(":8080")
	l := Default()
	f.Fuzz(func(t *testing.T, host string) {
		if len(host) > 1<<10 {
			return
		}
		suffix := PublicSuffix(host)
		if want := oraclePublicSuffix(l, Normalize(host)); suffix != want {
			t.Fatalf("PublicSuffix(%q) = %q, oracle %q", host, suffix, want)
		}
		e, err := ETLDPlusOne(host)
		we, werr := oracleETLDPlusOne(l, host)
		if e != we || (err == nil) != (werr == nil) {
			t.Fatalf("ETLDPlusOne(%q) = %q, %v; oracle %q, %v", host, e, err, we, werr)
		}
		if err == nil {
			if suffix == "" {
				t.Fatalf("ETLDPlusOne(%q) = %q but no public suffix", host, e)
			}
			if e != suffix && !strings.HasSuffix(e, "."+suffix) {
				t.Fatalf("ETLDPlusOne(%q) = %q does not end with suffix %q", host, e, suffix)
			}
		}
		// SameSite against the host's own parent domain and against
		// a few fixed hosts on each kind of rule.
		others := []string{"www.example.com", "x.y.www.ck", "a.b.ck", "shop.co.uk"}
		if i := strings.IndexByte(host, '.'); i >= 0 {
			others = append(others, host[i+1:])
		}
		for _, o := range others {
			if got, want := l.SameSite(host, o), oracleSameSite(l, host, o); got != want {
				t.Fatalf("SameSite(%q, %q) = %v, oracle %v", host, o, got, want)
			}
		}
	})
}
