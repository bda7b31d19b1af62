package crawler

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/faultsim"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// faultyEcosystem builds the small ecosystem with fault injection on.
func faultyEcosystem(t *testing.T, seed uint64, rate float64) *webgen.Ecosystem {
	t.Helper()
	cfg := webgen.SmallConfig(seed)
	cfg.Faults = &faultsim.Config{Rate: rate}
	return webgen.MustGenerate(cfg)
}

func datasetBytes(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// analyze runs the detection pipeline over a dataset, the way the study
// does, so equivalence tests can compare Table 1 numbers and not just
// raw traffic.
func analyze(t *testing.T, ds *Dataset) *core.Analysis {
	t.Helper()
	eng, err := detect.NewEngine(ds.Persona, dnssim.NewClassifier(ds.Zone()), detect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := eng.NewScanner()
	var leaks []core.Leak
	for _, c := range ds.Crawls {
		leaks = append(leaks, sc.DetectSite(c.Domain, c.Records)...)
	}
	return core.Analyze(leaks, len(ds.Crawls))
}

func TestFaultFreeOptsMatchStockCrawl(t *testing.T) {
	// Without faults, the parallel crawl must be byte-identical to the
	// stock serial crawl, and the resilient runtime may not perturb the
	// default dataset.
	eco := webgen.MustGenerate(webgen.SmallConfig(11))
	want := datasetBytes(t, mustRun(t, eco, browser.Firefox88(), Options{}))
	if !bytes.Equal(want, datasetBytes(t, mustRun(t, eco, browser.Firefox88(), Options{Workers: 4}))) {
		t.Error("parallel crawl differs from the serial crawl")
	}
	// Fault-free crawls must not emit resilience accounting fields.
	if bytes.Contains(want, []byte(`"attempts"`)) || bytes.Contains(want, []byte(`"failed_fetches"`)) {
		t.Error("fault-free dataset carries resilience fields")
	}
}

func TestFaultCrawlDeterministicAcrossRuns(t *testing.T) {
	a := mustRun(t, faultyEcosystem(t, 23, 0.3), browser.Firefox88(), Options{})
	b := mustRun(t, faultyEcosystem(t, 23, 0.3), browser.Firefox88(), Options{})
	if !bytes.Equal(datasetBytes(t, a), datasetBytes(t, b)) {
		t.Error("same seed produced different fault-injected datasets")
	}
}

func TestFaultCrawlSeedChangesFaults(t *testing.T) {
	eco := faultyEcosystem(t, 23, 0.3)
	cfg := webgen.SmallConfig(23)
	cfg.Faults = &faultsim.Config{Seed: 999, Rate: 0.3}
	other := webgen.MustGenerate(cfg)
	a := mustRun(t, eco, browser.Firefox88(), Options{})
	b := mustRun(t, other, browser.Firefox88(), Options{})
	if bytes.Equal(datasetBytes(t, a), datasetBytes(t, b)) {
		t.Error("different fault seeds produced identical datasets (suspicious)")
	}
}

func TestFaultParallelMatchesSerialAllWorkerCounts(t *testing.T) {
	// The acceptance bar: Workers ∈ {0, 1, 4, 8} under injected faults
	// produce the same dataset — same funnel, same leaks, same Table 1.
	serialEco := faultyEcosystem(t, 37, 0.3)
	serial, err := Run(context.Background(), serialEco, browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, serial)
	wantFunnel := serial.FunnelCounts()
	wantHeadline := analyze(t, serial).Headline()
	if wantFunnel[OutcomePartial]+wantFunnel[OutcomeUnreachable] == 0 {
		t.Log("note: no site degraded at this seed/rate; equivalence still checked")
	}

	for _, workers := range []int{1, 4, 8} {
		eco := faultyEcosystem(t, 37, 0.3)
		ds, err := Run(context.Background(), eco, browser.Firefox88(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, datasetBytes(t, ds)) {
			t.Errorf("workers=%d: dataset differs from serial", workers)
			continue
		}
		if got := ds.FunnelCounts(); !reflect.DeepEqual(got, wantFunnel) {
			t.Errorf("workers=%d: funnel %v, want %v", workers, got, wantFunnel)
		}
		if got := analyze(t, ds).Headline(); got != wantHeadline {
			t.Errorf("workers=%d: headline %+v, want %+v", workers, got, wantHeadline)
		}
	}
}

// hostProfiles classifies every host a site's fault-free crawl touches.
func hostProfiles(inj *faultsim.Injector, clean *SiteCrawl, siteHost string) (flaky, fatal bool) {
	hosts := map[string]bool{siteHost: true}
	for _, r := range clean.Records {
		hosts[r.Request.Host()] = true
	}
	for h := range hosts {
		p := inj.ProfileFor(h)
		if p == nil {
			continue
		}
		if p.Permanent || p.FailAfter > 0 {
			fatal = true
		} else if p.FailFirst > 0 {
			flaky = true
		}
	}
	return flaky, fatal
}

func TestRetriesRecoverTransientlyFailingSites(t *testing.T) {
	// Sites whose faulty hosts are all flaky-then-healthy must end with
	// the same outcome a fault-free crawl gives them: the default retry
	// budget (4 attempts) covers the flaky window (≤ 3 failures), and
	// the breaker threshold (5) never truncates a single fetch's budget.
	// The acceptance bar is ≥ 90% recovery; the design gives 100%.
	cleanEco := webgen.MustGenerate(webgen.SmallConfig(29))
	clean := mustRun(t, cleanEco, browser.Firefox88(), Options{})
	cleanBySite := map[string]*SiteCrawl{}
	for i := range clean.Crawls {
		cleanBySite[clean.Crawls[i].Domain] = &clean.Crawls[i]
	}

	eco := faultyEcosystem(t, 29, 0.35)
	ds := mustRun(t, eco, browser.Firefox88(), Options{})

	transient, recovered, retried := 0, 0, 0
	for i := range ds.Crawls {
		c := &ds.Crawls[i]
		cc := cleanBySite[c.Domain]
		var s *site.Site
		for _, cand := range eco.Sites {
			if cand.Domain == c.Domain {
				s = cand
			}
		}
		flaky, fatal := hostProfiles(eco.Faults, cc, s.Host())
		if fatal || !flaky {
			continue
		}
		transient++
		if c.Outcome == cc.Outcome && len(c.Records) == len(cc.Records) {
			recovered++
		}
		if c.Retries > 0 {
			retried++
		}
	}
	if transient == 0 {
		t.Fatal("no transiently-failing sites at this seed/rate — test is vacuous")
	}
	if rate := float64(recovered) / float64(transient); rate < 0.9 {
		t.Errorf("recovered %d/%d transiently-failing sites (%.0f%%), want >= 90%%",
			recovered, transient, 100*rate)
	}
	if retried == 0 {
		t.Error("no transiently-failing site recorded a retry")
	}
}

func TestPinnedFaultProfilesShapeOutcomes(t *testing.T) {
	// Pin three crawlable sites' own hosts to the three fault classes
	// and check the funnel places each where the design says.
	probe := webgen.MustGenerate(webgen.SmallConfig(41))
	if len(probe.Crawlable) < 3 {
		t.Fatal("not enough crawlable sites")
	}
	dead := probe.Crawlable[0]
	degrading := probe.Crawlable[1]
	flaky := probe.Crawlable[2]

	cfg := webgen.SmallConfig(41)
	cfg.Faults = &faultsim.Config{Hosts: map[string]faultsim.Profile{
		dead.Host():      {Kind: faultsim.KindTimeout, Permanent: true},
		degrading.Host(): {Kind: faultsim.KindHTTP5xx, FailAfter: 2},
		flaky.Host():     {Kind: faultsim.KindHTTP5xx, FailFirst: 3},
	}}
	eco := webgen.MustGenerate(cfg)
	ds := mustRun(t, eco, browser.Firefox88(), Options{})

	byDomain := map[string]*SiteCrawl{}
	for i := range ds.Crawls {
		byDomain[ds.Crawls[i].Domain] = &ds.Crawls[i]
	}

	if c := byDomain[dead.Domain]; c.Outcome != OutcomeUnreachable {
		t.Errorf("permanent host: outcome %s, want unreachable", c.Outcome)
	} else if c.FailedFetches == 0 || c.Attempts == 0 {
		t.Errorf("permanent host: accounting empty: %+v", c)
	}

	if c := byDomain[degrading.Domain]; c.Outcome != OutcomePartial {
		t.Errorf("degrading host: outcome %s, want partial", c.Outcome)
	} else if len(c.Records) == 0 {
		t.Error("degrading host: partial record carries no traffic")
	}

	if c := byDomain[flaky.Domain]; c.Outcome != OutcomeSuccess {
		t.Errorf("flaky host: outcome %s, want success", c.Outcome)
	} else if c.Retries < 3 {
		t.Errorf("flaky host: retries = %d, want >= 3 (the flaky window)", c.Retries)
	}
}

func TestPartialRecordsKeepPrefixTraffic(t *testing.T) {
	// A partial crawl's records must be a prefix-consistent subset of
	// the fault-free crawl: same site, strictly fewer records, and no
	// record the clean crawl lacks.
	cleanEco := webgen.MustGenerate(webgen.SmallConfig(29))
	clean := mustRun(t, cleanEco, browser.Firefox88(), Options{})
	cleanBySite := map[string]*SiteCrawl{}
	for i := range clean.Crawls {
		cleanBySite[clean.Crawls[i].Domain] = &clean.Crawls[i]
	}

	// Bias the fault mix toward degrading hosts so some site's own host
	// dies mid-flow and the partial path actually runs.
	cfg := webgen.SmallConfig(29)
	cfg.Faults = &faultsim.Config{Rate: 0.5, DegradeFrac: 0.6, PermanentFrac: 0.05}
	ds := mustRun(t, webgen.MustGenerate(cfg), browser.Firefox88(), Options{})
	partials := 0
	for i := range ds.Crawls {
		c := &ds.Crawls[i]
		if c.Outcome != OutcomePartial {
			continue
		}
		partials++
		cc := cleanBySite[c.Domain]
		if len(c.Records) >= len(cc.Records) {
			t.Errorf("%s: partial crawl has %d records, clean has %d", c.Domain, len(c.Records), len(cc.Records))
		}
		cleanURLs := map[string]bool{}
		for _, r := range cc.Records {
			cleanURLs[r.Request.URL] = true
		}
		for _, r := range c.Records {
			if !cleanURLs[r.Request.URL] {
				t.Errorf("%s: partial crawl fetched %s, absent from the clean crawl", c.Domain, r.Request.URL)
			}
		}
	}
	if partials == 0 {
		t.Fatal("no partial outcomes despite a degrading-heavy fault mix")
	}
}

func TestReadJSONRejectsDuplicateDomains(t *testing.T) {
	dup := `{"browser":"x","crawls":[{"domain":"a.com","rank":1,"outcome":"success"},{"domain":"a.com","rank":2,"outcome":"success"}]}`
	if _, err := ReadJSON(strings.NewReader(dup)); err == nil {
		t.Fatal("duplicate site domain accepted")
	} else if !strings.Contains(err.Error(), "duplicate site domain") {
		t.Errorf("error %q does not name the duplicate", err)
	}
}
