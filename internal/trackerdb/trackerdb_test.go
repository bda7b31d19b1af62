package trackerdb

import (
	"context"
	"strings"
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

func mkLeak(site, recv, param, value string, phase httpmodel.Phase, seq int) core.Leak {
	return core.Leak{
		Site: site, Receiver: recv, Method: httpmodel.SurfaceURI,
		Param: param, Phase: phase, Seq: seq,
		Token: pii.Token{Value: value, Field: pii.Field{Type: pii.TypeEmail}, Chain: []string{"sha256"}},
	}
}

func TestIngestBuildsProfile(t *testing.T) {
	s := NewServer("fb.com")
	s.Ingest(&[]core.Leak{mkLeak("a.com", "fb.com", "udff[em]", "HASH", httpmodel.PhaseSignup, 1)}[0], "laptop")
	s.Ingest(&[]core.Leak{mkLeak("b.com", "fb.com", "udff[em]", "HASH", httpmodel.PhaseSubpage, 9)}[0], "phone")

	if s.ProfileCount() != 1 {
		t.Fatalf("profiles = %d, want 1 (same ID merges)", s.ProfileCount())
	}
	p := s.Profiles()[0]
	if p.ID != "HASH" || p.Encoding != "sha256" {
		t.Errorf("profile = %+v", p)
	}
	if len(p.Sites) != 2 || len(p.Contexts) != 2 {
		t.Errorf("sites = %v, contexts = %v", p.Sites, p.Contexts)
	}
	if len(p.Visits) != 2 {
		t.Errorf("visits = %+v", p.Visits)
	}
	hist := p.History()
	if !strings.Contains(hist, "a.com") || !strings.Contains(hist, "phone") {
		t.Errorf("history:\n%s", hist)
	}
}

func TestIngestIgnoresOtherReceivers(t *testing.T) {
	s := NewServer("fb.com")
	l := mkLeak("a.com", "criteo.com", "p0", "H2", httpmodel.PhaseSignup, 1)
	s.Ingest(&l, "")
	if s.ProfileCount() != 0 {
		t.Error("foreign receiver ingested")
	}
}

func TestIngestIgnoresRefererLeaks(t *testing.T) {
	s := NewServer("ads.net")
	l := core.Leak{
		Site: "a.com", Receiver: "ads.net", Method: httpmodel.SurfaceReferer,
		Token: pii.Token{Value: "plain@e.mail", Field: pii.Field{Type: pii.TypeEmail}},
	}
	s.Ingest(&l, "")
	if s.ProfileCount() != 0 {
		t.Error("referer leak stored as identifier")
	}
}

func TestDistinctIDsDistinctProfiles(t *testing.T) {
	s := NewServer("t.net")
	a := mkLeak("a.com", "t.net", "uid", "ID1", httpmodel.PhaseSignup, 1)
	b := mkLeak("b.com", "t.net", "uid", "ID2", httpmodel.PhaseSignup, 1)
	s.Ingest(&a, "")
	s.Ingest(&b, "")
	if s.ProfileCount() != 2 {
		t.Errorf("profiles = %d", s.ProfileCount())
	}
}

// TestServerReconstructsStudyHistory is the §5.1 scenario end to end:
// the facebook store, fed only with what the detector saw, reconstructs
// the persona's cross-site browsing history.
func TestServerReconstructsStudyHistory(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(71))
	ds, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := detect.MustNewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{}).NewScanner()

	var leaks []core.Leak
	for _, c := range ds.Successes() {
		leaks = append(leaks, sc.DetectSite(c.Domain, c.Records)...)
	}

	srv := NewServer("facebook.com")
	srv.IngestAll(leaks, "laptop-firefox")

	// One profile per identifier encoding: facebook's Table 2 rows use
	// sha256 (udff[em]) and md5 (ud[em]), so at most two. Server-side,
	// the provider trivially links them — it computes both hashes from
	// the raw address.
	if n := srv.ProfileCount(); n < 1 || n > 2 {
		t.Fatalf("facebook holds %d profiles for one persona", n)
	}
	p := srv.Profiles()[0] // the largest: the sha256 identifier

	// Every sender on facebook's sha256 slot appears in the history.
	want := map[string]bool{}
	for _, ed := range eco.Edges {
		if eco.Providers[ed.Provider].Domain == "facebook.com" &&
			len(ed.Chain) == 1 && ed.Chain[0] == "sha256" {
			want[eco.SenderSites[ed.Sender].Domain] = true
		}
	}
	got := map[string]bool{}
	for _, site := range p.Sites {
		got[site] = true
	}
	for site := range want {
		if !got[site] {
			t.Errorf("history missing %s", site)
		}
	}
	for site := range got {
		if !want[site] {
			t.Errorf("history has unexpected site %s", site)
		}
	}

	// Subpage visits are present: the persistence that makes the ID a
	// cookie replacement.
	foundSubpage := false
	for _, v := range p.Visits {
		if v.Phase == httpmodel.PhaseSubpage {
			foundSubpage = true
		}
	}
	if !foundSubpage {
		t.Error("no subpage visits in the reconstructed history")
	}
}
