package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/mailbox"
	"piileak/internal/pii"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// foldInputs is one site of each kind the fold keeps apart, at indexes
// 0 and 2–5 of a 6-site population; index 1 is never added. Sites 0 and
// 3 both mail the persona and are charged blocks for one receiver.
func foldInputs(eco *webgen.Ecosystem) []crawler.SiteResult {
	crawl := func(i int, outcome crawler.Outcome, obstacle site.Obstacle) crawler.SiteCrawl {
		s := eco.Sites[i]
		return crawler.SiteCrawl{Domain: s.Domain, Rank: s.Rank, Outcome: outcome, Obstacle: obstacle}
	}
	leak := func(seq int, method httpmodel.SurfaceKind) core.Leak {
		return core.Leak{
			Site: eco.Sites[0].Domain, Receiver: "facebook.com", Method: method, Param: "ud",
			Token:      pii.Token{Value: "6a3b", Field: pii.Field{Type: pii.TypeEmail, Value: eco.Persona.Email}, Chain: []string{"sha256"}},
			RequestURL: "https://www.facebook.com/tr?ud=6a3b", Phase: httpmodel.PhaseSignin, Seq: seq,
		}
	}
	mail := func(i int, kind mailbox.Kind) mailbox.Message {
		return mailbox.Message{FromDomain: eco.Sites[i].Domain, Subject: string(kind), Kind: kind, Folder: mailbox.FolderInbox}
	}
	return []crawler.SiteResult{
		{Index: 0, Crawl: crawl(0, crawler.OutcomeSuccess, ""), Records: 40,
			Leaks:    []core.Leak{leak(17, httpmodel.SurfaceURI), leak(21, httpmodel.SurfaceReferer)},
			Requests: []httpmodel.IndexedRequest{{URL: "https://www.facebook.com/tr?ud=6a3b", Seq: 17}, {URL: "https://www.facebook.com/tr", Seq: 21}},
			Mail:     []mailbox.Message{mail(0, mailbox.KindConfirmation), mail(0, mailbox.KindMarketing)},
			Blocked:  map[string]int{"doubleclick.net": 2}},
		{Index: 2, Crawl: crawl(2, crawler.OutcomeCrashed, ""), Records: 3},
		{Index: 3, Crawl: crawl(3, crawler.OutcomeSuccess, ""), Records: 25,
			Mail:    []mailbox.Message{mail(3, mailbox.KindConfirmation)},
			Blocked: map[string]int{"doubleclick.net": 1, "criteo.com": 4}},
		{Index: 4, Crawl: crawl(4, crawler.OutcomeNoAuthFlow, site.ObstacleNoAuth), Records: 2},
		{Index: 5, Crawl: crawl(5, crawler.OutcomeUnreachable, site.ObstacleUnreachable)},
	}
}

// TestFoldOrderKeepsDataset: the fold's outputs do not depend on the
// order sites arrive in. Folded in site order, in reverse and in shard
// order (index s + i·K for K = 2, as a merge reads its shards), the
// leak list, the dataset bytes, the stats and the record count are the
// same; the index never added has no crawl; and the mail keeps site
// order while the block counts sum. A fold of no sites writes its
// crawls as null.
func TestFoldOrderKeepsDataset(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(29))
	profile := browser.Firefox88()
	in := foldInputs(eco)
	const population = 6

	type outputs struct {
		leaks, dataset []byte
		stats          Stats
		records        int
	}
	fold := func(order []crawler.SiteResult) (outputs, *Result) {
		acc := NewAccumulator(population)
		for i := range order {
			acc.Add(&order[i])
		}
		res := acc.Result(eco, profile)
		leaks, err := json.Marshal(res.Leaks)
		if err != nil {
			t.Fatal(err)
		}
		var ds bytes.Buffer
		if err := res.Dataset.WriteJSON(&ds); err != nil {
			t.Fatal(err)
		}
		return outputs{leaks, ds.Bytes(), res.Stats, res.TotalRecords}, res
	}

	want, res := fold(in)
	var domains []string
	for _, c := range res.Dataset.Crawls {
		domains = append(domains, c.Domain)
	}
	if wantDomains := []string{eco.Sites[0].Domain, eco.Sites[2].Domain, eco.Sites[3].Domain, eco.Sites[4].Domain, eco.Sites[5].Domain}; !slices.Equal(domains, wantDomains) {
		t.Errorf("crawls = %v, want sites 0 and 2–5 in site order %v", domains, wantDomains)
	}
	var from []string
	for _, m := range res.Dataset.Mailbox.Messages {
		from = append(from, m.FromDomain)
	}
	if wantFrom := []string{eco.Sites[0].Domain, eco.Sites[0].Domain, eco.Sites[3].Domain}; !slices.Equal(from, wantFrom) {
		t.Errorf("mail from %v, want %v", from, wantFrom)
	}
	if b := res.Dataset.Blocked; len(b) != 2 || b["doubleclick.net"] != 3 || b["criteo.com"] != 4 {
		t.Errorf("blocked = %v, want doubleclick.net 3 and criteo.com 4", b)
	}
	if len(res.Leaks) != 2 || want.stats != (Stats{Sites: 5, Successes: 2, Leaks: 2, Released: 4}) || want.records != 70 {
		t.Errorf("site order: %d leaks, stats %+v, %d records; want 2 leaks, 5 sites, 2 successes, 4 released, 70 records", len(res.Leaks), want.stats, want.records)
	}
	if !res.Requests.Has(eco.Sites[0].Domain) || res.Requests.Has(eco.Sites[3].Domain) {
		t.Error("request index holds other sites than the leaky one")
	}

	var shardOrder []crawler.SiteResult
	for s := 0; s < 2; s++ {
		for _, r := range in {
			if r.Index%2 == s {
				shardOrder = append(shardOrder, r)
			}
		}
	}
	reverse := slices.Clone(in)
	slices.Reverse(reverse)
	for _, tc := range []struct {
		name  string
		order []crawler.SiteResult
	}{
		{"reverse", reverse},
		{"shard order", shardOrder},
	} {
		got, _ := fold(tc.order)
		if !bytes.Equal(got.leaks, want.leaks) {
			t.Errorf("%s: leak JSON differs from site order's:\n%s\nwant\n%s", tc.name, got.leaks, want.leaks)
		}
		if !bytes.Equal(got.dataset, want.dataset) {
			t.Errorf("%s: dataset differs from site order's:\n%s\nwant\n%s", tc.name, got.dataset, want.dataset)
		}
		if got.stats != want.stats || got.records != want.records {
			t.Errorf("%s: stats %+v and %d records, want %+v and %d", tc.name, got.stats, got.records, want.stats, want.records)
		}
	}

	var empty bytes.Buffer
	if err := NewAccumulator(0).Result(eco, profile).Dataset.WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(empty.Bytes(), []byte(`"crawls": null`)) {
		t.Errorf("a fold of no sites writes %s, want \"crawls\": null", empty.Bytes())
	}
}

// TestFoldHeapPerSite pins what a run keeps per site: folding a
// 40,000-site universe, whose tail sites report nothing, grows the live
// heap by at most 200 bytes a site by the last detect event. The crawl
// column and its domains are about 140 of them; keeping a slot of the
// whole SiteResult per site breaks the bound.
func TestFoldHeapPerSite(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const sites = 40000
	cfg := webgen.SmallConfig(7)
	cfg.UniverseSize = sites
	eco := webgen.MustGenerate(cfg)
	det := detect.MustNewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{})
	det.Candidates().States() // the automaton is set-up, not per-site state

	var before, last runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Run(context.Background(), eco, browser.Firefox88(), det, Options{Progress: func(ev Event) {
		if ev.Stage == "detect" && ev.Done == ev.Total {
			runtime.GC()
			runtime.ReadMemStats(&last)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if last.NumGC == 0 {
		t.Fatal("no detect event reported the last site")
	}
	perSite := (int64(last.HeapAlloc) - int64(before.HeapAlloc)) / sites
	t.Logf("live heap grew %d B per site", perSite)
	if perSite > 200 {
		t.Errorf("live heap grew %d B per site over %d sites, want at most 200", perSite, sites)
	}
}
