package tracking

import (
	"context"
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

func leak(site, recv, param string, method httpmodel.SurfaceKind, phase httpmodel.Phase, chain []string) core.Leak {
	return core.Leak{
		Site: site, Receiver: recv, Method: method, Param: param, Phase: phase,
		Token: pii.Token{
			Value: "tokenvalue-" + pii.ChainLabel(chain),
			Field: pii.Field{Type: pii.TypeEmail},
			Chain: chain,
		},
	}
}

func TestClassifyTracker(t *testing.T) {
	leaks := []core.Leak{
		leak("a.com", "fb.com", "udff[em]", httpmodel.SurfaceURI, httpmodel.PhaseSignup, []string{"sha256"}),
		leak("b.com", "fb.com", "udff[em]", httpmodel.SurfaceURI, httpmodel.PhaseSignup, []string{"sha256"}),
		leak("a.com", "fb.com", "udff[em]", httpmodel.SurfaceURI, httpmodel.PhaseSubpage, []string{"sha256"}),
	}
	c := Classify(leaks)
	if len(c.Trackers) != 1 {
		t.Fatalf("trackers = %d, want 1", len(c.Trackers))
	}
	tr := c.Trackers[0]
	if tr.Receiver != "fb.com" || !tr.MultiSenderID || !tr.Persistent {
		t.Errorf("tracker = %+v", tr)
	}
	if tr.Senders != 2 {
		t.Errorf("senders = %d", tr.Senders)
	}
	if len(tr.Rows) != 1 || tr.Rows[0].Encoding != "sha256" || tr.Rows[0].Senders != 2 {
		t.Errorf("rows = %+v", tr.Rows)
	}
}

func TestClassifyNotPersistent(t *testing.T) {
	// Same ID from two senders but never on subpages: cross-site cue
	// only.
	leaks := []core.Leak{
		leak("a.com", "ga.com", "em", httpmodel.SurfaceURI, httpmodel.PhaseSignup, []string{"sha256"}),
		leak("b.com", "ga.com", "em", httpmodel.SurfaceURI, httpmodel.PhaseSignin, []string{"sha256"}),
	}
	c := Classify(leaks)
	if len(c.Trackers) != 0 {
		t.Fatalf("trackers = %+v", c.Trackers)
	}
	if c.MultiSenderID != 1 {
		t.Errorf("multi-sender-ID receivers = %d", c.MultiSenderID)
	}
}

func TestClassifyInconsistentParams(t *testing.T) {
	// Two senders, but different identifier parameters and values: the
	// cross-site cue fails.
	a := leak("a.com", "cl.ms", "cl_em1", httpmodel.SurfaceURI, httpmodel.PhaseSubpage, []string{"sha256"})
	b := leak("b.com", "cl.ms", "cl_em2", httpmodel.SurfaceURI, httpmodel.PhaseSubpage, []string{"sha256"})
	b.Token.Value = "another-token"
	c := Classify([]core.Leak{a, b})
	if len(c.Trackers) != 0 {
		t.Fatalf("inconsistent-param receiver classified as tracker")
	}
	if c.MultiSender != 1 || c.MultiSenderID != 0 {
		t.Errorf("census = %+v", c)
	}
}

func TestClassifyRefererNotIdentifiable(t *testing.T) {
	leaks := []core.Leak{
		leak("a.com", "ads.net", "", httpmodel.SurfaceReferer, httpmodel.PhaseSignup, nil),
		leak("b.com", "ads.net", "", httpmodel.SurfaceReferer, httpmodel.PhaseSignup, nil),
	}
	c := Classify(leaks)
	if len(c.Trackers) != 0 || c.MultiSenderID != 0 {
		t.Errorf("referer receiver misclassified: %+v", c)
	}
	if c.MultiSender != 1 {
		t.Errorf("multi-sender = %d", c.MultiSender)
	}
}

func TestDisplayCloaked(t *testing.T) {
	p := Provider{Receiver: "omtrdc.net", Cloaked: true}
	if got := p.Display(); got != "adobe_cname" {
		t.Errorf("Display = %q", got)
	}
	p2 := Provider{Receiver: "eulerian.net", Cloaked: true}
	if got := p2.Display(); got != "eulerian_cname" {
		t.Errorf("Display = %q", got)
	}
	p3 := Provider{Receiver: "facebook.com"}
	if got := p3.Display(); got != "facebook.com" {
		t.Errorf("Display = %q", got)
	}
}

func TestEndToEndTrackerCensus(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(31))
	ds, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := detect.MustNewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{}).NewScanner()

	var leaks []core.Leak
	for _, c := range ds.Successes() {
		leaks = append(leaks, sc.DetectSite(c.Domain, c.Records)...)
	}
	cls := Classify(leaks)

	// The recovered tracker set must be exactly the ecosystem's
	// persistent providers that kept >= 2 senders after scaling.
	wantTrackers := map[string]bool{}
	senderCount := map[string]map[int]bool{}
	for _, ed := range eco.Edges {
		p := eco.Providers[ed.Provider]
		if !p.Persistent {
			continue
		}
		if senderCount[p.Domain] == nil {
			senderCount[p.Domain] = map[int]bool{}
		}
		senderCount[p.Domain][ed.Sender] = true
	}
	for dom, ss := range senderCount {
		if len(ss) >= 2 {
			wantTrackers[dom] = true
		}
	}
	got := map[string]bool{}
	for _, tr := range cls.Trackers {
		got[tr.Receiver] = true
	}
	for dom := range wantTrackers {
		if !got[dom] {
			t.Errorf("tracking provider not recovered: %s", dom)
		}
	}
	for dom := range got {
		if !wantTrackers[dom] {
			t.Errorf("false tracking provider: %s", dom)
		}
	}

	// All trackers identify through the email address.
	for _, tr := range cls.Trackers {
		types := PIITypes(leaks, tr.Receiver)
		hasEmail := false
		for _, tp := range types {
			if tp == pii.TypeEmail {
				hasEmail = true
			}
		}
		if !hasEmail {
			t.Errorf("%s does not use the email address", tr.Receiver)
		}
	}
}
