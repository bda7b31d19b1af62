package dnssim

import (
	"reflect"
	"testing"
)

func TestResolveChain(t *testing.T) {
	z := NewZone()
	z.AddCNAME("metrics.shop.example.com", "shop-example.sc.omtrdc.net")
	z.AddCNAME("shop-example.sc.omtrdc.net", "edge.adobedc.net")

	chain, err := z.Resolve("metrics.shop.example.com")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"shop-example.sc.omtrdc.net", "edge.adobedc.net"}
	if !reflect.DeepEqual(chain, want) {
		t.Errorf("chain = %v, want %v", chain, want)
	}
}

func TestResolveNoRecord(t *testing.T) {
	z := NewZone()
	chain, err := z.Resolve("plain.example.com")
	if err != nil || chain != nil {
		t.Errorf("Resolve = %v, %v; want nil, nil", chain, err)
	}
}

func TestResolveLoop(t *testing.T) {
	z := NewZone()
	z.AddCNAME("a.example.com", "b.example.com")
	z.AddCNAME("b.example.com", "a.example.com")
	if _, err := z.Resolve("a.example.com"); err == nil {
		t.Error("CNAME loop not detected")
	}
}

func TestResolveNormalizesCase(t *testing.T) {
	z := NewZone()
	z.AddCNAME("Metrics.Example.COM", "T.Tracker.NET")
	chain, err := z.Resolve("metrics.example.com")
	if err != nil || len(chain) != 1 || chain[0] != "t.tracker.net" {
		t.Errorf("chain = %v, %v", chain, err)
	}
}

func TestUncloakDetectsAdobe(t *testing.T) {
	z := NewZone()
	z.AddCNAME("smetrics.shop.example.com", "shopexample.sc.omtrdc.net")
	c := NewClassifier(z)

	tracker, ok := c.Uncloak("smetrics.shop.example.com")
	if !ok || tracker != "omtrdc.net" {
		t.Errorf("Uncloak = %q, %v; want omtrdc.net, true", tracker, ok)
	}
}

func TestUncloakIgnoresBenignCNAME(t *testing.T) {
	z := NewZone()
	z.AddCNAME("www.shop.example.com", "shop-example.cloudfront.net")
	c := NewClassifier(z)
	if tracker, ok := c.Uncloak("www.shop.example.com"); ok {
		t.Errorf("benign CDN flagged as cloaking: %q", tracker)
	}
}

func TestEffectiveParty(t *testing.T) {
	z := NewZone()
	z.AddCNAME("metrics.shop.example.com", "x.eulerian.net")
	c := NewClassifier(z)

	if got := c.EffectiveParty("metrics.shop.example.com"); got != "eulerian.net" {
		t.Errorf("EffectiveParty(cloaked) = %q", got)
	}
	if got := c.EffectiveParty("cdn.shop.example.com"); got != "example.com" {
		t.Errorf("EffectiveParty(plain) = %q", got)
	}
}

func TestDefaultCloakingListContents(t *testing.T) {
	l := DefaultCloakingList()
	for _, d := range []string{"omtrdc.net", "eulerian.net", "2o7.net"} {
		if !l.Contains(d) {
			t.Errorf("default list missing %s", d)
		}
	}
	if l.Contains("example.com") {
		t.Error("default list contains example.com")
	}
	if l.String() == "" {
		t.Error("String() empty")
	}
}

func TestZoneHostsSorted(t *testing.T) {
	z := NewZone()
	z.AddCNAME("b.example.com", "t.net")
	z.AddCNAME("a.example.com", "t.net")
	got := z.Hosts()
	if !reflect.DeepEqual(got, []string{"a.example.com", "b.example.com"}) {
		t.Errorf("Hosts = %v", got)
	}
}
