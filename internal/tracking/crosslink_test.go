package tracking

import (
	"context"
	"reflect"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

func TestCrossContextLinksSameID(t *testing.T) {
	fb := func(site string) core.Leak {
		return leak(site, "fb.com", "udff[em]", httpmodel.SurfaceURI, httpmodel.PhaseSignup, []string{"sha256"})
	}
	links := CrossContext([]ContextLeaks{
		{Context: "laptop-firefox", Leaks: []core.Leak{fb("a.com")}},
		{Context: "phone-chrome", Leaks: []core.Leak{fb("b.com")}},
	})
	if len(links) != 1 {
		t.Fatalf("links = %+v", links)
	}
	l := links[0]
	if l.Receiver != "fb.com" {
		t.Errorf("receiver = %s", l.Receiver)
	}
	if !reflect.DeepEqual(l.Contexts, []string{"laptop-firefox", "phone-chrome"}) {
		t.Errorf("contexts = %v", l.Contexts)
	}
	if !reflect.DeepEqual(l.Sites, []string{"a.com", "b.com"}) {
		t.Errorf("sites = %v", l.Sites)
	}
	if got := LinkingReceivers(links); len(got) != 1 || got[0] != "fb.com" {
		t.Errorf("LinkingReceivers = %v", got)
	}
}

func TestCrossContextDifferentIDsDoNotLink(t *testing.T) {
	a := leak("a.com", "t.net", "uid", httpmodel.SurfaceURI, httpmodel.PhaseSignup, []string{"sha256"})
	b := leak("b.com", "t.net", "uid", httpmodel.SurfaceURI, httpmodel.PhaseSignup, []string{"md5"})
	// Different chains yield different token values (leak() bakes the
	// label into the value).
	links := CrossContext([]ContextLeaks{
		{Context: "c1", Leaks: []core.Leak{a}},
		{Context: "c2", Leaks: []core.Leak{b}},
	})
	if len(links) != 0 {
		t.Errorf("links = %+v", links)
	}
}

func TestCrossContextSingleContextNoLink(t *testing.T) {
	l := leak("a.com", "t.net", "uid", httpmodel.SurfaceURI, httpmodel.PhaseSignup, nil)
	links := CrossContext([]ContextLeaks{{Context: "only", Leaks: []core.Leak{l, l}}})
	if len(links) != 0 {
		t.Errorf("one context linked with itself: %+v", links)
	}
}

func TestCrossContextRefererNotIdentifiable(t *testing.T) {
	r := leak("a.com", "ads.net", "", httpmodel.SurfaceReferer, httpmodel.PhaseSignup, nil)
	links := CrossContext([]ContextLeaks{
		{Context: "c1", Leaks: []core.Leak{r}},
		{Context: "c2", Leaks: []core.Leak{r}},
	})
	if len(links) != 0 {
		t.Errorf("referer leak linked contexts: %+v", links)
	}
}

// TestCrossBrowserEndToEnd reproduces §5.1's claim on the simulator: the
// same persona completing auth flows in two different browsers hands
// every tracking provider an identical ID in both.
func TestCrossBrowserEndToEnd(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(61))
	sc := detect.MustNewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{}).NewScanner()

	detectUnder := func(profile browser.Profile) []core.Leak {
		ds, err := crawler.Run(context.Background(), eco, profile, crawler.Options{Source: site.Slice(eco.SenderSites)})
		if err != nil {
			t.Fatal(err)
		}
		var leaks []core.Leak
		for _, c := range ds.Crawls {
			leaks = append(leaks, sc.DetectSite(c.Domain, c.Records)...)
		}
		return leaks
	}

	links := CrossContext([]ContextLeaks{
		{Context: "firefox", Leaks: detectUnder(browser.Firefox88())},
		{Context: "chrome", Leaks: detectUnder(browser.Chrome93())},
	})
	linkers := map[string]bool{}
	for _, r := range LinkingReceivers(links) {
		linkers[r] = true
	}

	cls := Classify(detectUnder(browser.Firefox88()))
	if len(cls.Trackers) == 0 {
		t.Fatal("no trackers in the small ecosystem")
	}
	for _, tr := range cls.Trackers {
		if !linkers[tr.Receiver] {
			t.Errorf("tracking provider %s cannot link the two browsers", tr.Receiver)
		}
	}
}
