package crawler

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"piileak/internal/browser"
	"piileak/internal/faultsim"
	"piileak/internal/obs"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// TestWatchdogCutsOffSlowSite: a site whose own host is persistently
// slow (each fetch succeeds but burns virtual time) must be cut off at
// the -site-timeout budget and recorded as OutcomeTimeout with its
// partial captures kept.
func TestWatchdogCutsOffSlowSite(t *testing.T) {
	probe := webgen.MustGenerate(webgen.SmallConfig(41))
	slow := probe.Crawlable[0]

	cfg := webgen.SmallConfig(41)
	cfg.Faults = &faultsim.Config{Hosts: map[string]faultsim.Profile{
		// 5s per fetch, always, within the 10s attempt budget: every
		// fetch succeeds, the site just bleeds the clock.
		slow.Host(): {Kind: faultsim.KindSlow, Permanent: true, Delay: 5 * time.Second},
	}}
	eco := webgen.MustGenerate(cfg)

	// Without a watchdog the slow site still completes.
	unbounded, err := Run(context.Background(), eco, browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var unboundedOutcome Outcome
	for i := range unbounded.Crawls {
		if unbounded.Crawls[i].Domain == slow.Domain {
			unboundedOutcome = unbounded.Crawls[i].Outcome
		}
	}
	if unboundedOutcome != OutcomeSuccess {
		t.Fatalf("slow site without watchdog: outcome %s, want success (test premise)", unboundedOutcome)
	}

	ds, err := Run(context.Background(), eco, browser.Firefox88(), Options{SiteTimeout: 12 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var got *SiteCrawl
	for i := range ds.Crawls {
		c := &ds.Crawls[i]
		if c.Domain == slow.Domain {
			got = c
		} else if c.Outcome == OutcomeTimeout {
			t.Errorf("site %s timed out but only %s is slow", c.Domain, slow.Domain)
		}
	}
	if got.Outcome != OutcomeTimeout {
		t.Fatalf("slow site outcome = %s, want timeout", got.Outcome)
	}
	if len(got.Records) == 0 {
		t.Error("timed-out site lost its partial captures")
	}
	if got.FailedFetches == 0 {
		t.Error("watchdog cutoff did not feed the failed-fetches accounting")
	}
}

// TestWatchdogDeterministicAcrossWorkerCounts: the watchdog runs on the
// per-site virtual clock, so parallel and serial runs trip it at the
// same point and stay byte-identical.
func TestWatchdogDeterministicAcrossWorkerCounts(t *testing.T) {
	opts := func(workers int) Options {
		return Options{Workers: workers, SiteTimeout: 20 * time.Second}
	}
	serial, err := Run(context.Background(), faultyEcosystem(t, 37, 0.3), browser.Firefox88(), opts(0))
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, serial)
	for _, workers := range []int{1, 4} {
		ds, err := Run(context.Background(), faultyEcosystem(t, 37, 0.3), browser.Firefox88(), opts(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, datasetBytes(t, ds)) {
			t.Errorf("workers=%d: watchdog dataset differs from serial", workers)
		}
	}
}

// TestWatchdogFaultFreeStaysByteIdentical: with no injector, a site
// budget must not perturb the stock run — nothing advances a site's
// virtual clock, so the deadline never trips, no accounting fields leak
// into the JSON, and the metrics and trace exports match byte for byte.
func TestWatchdogFaultFreeStaysByteIdentical(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(11))
	run := func(opts Options) (ds, metrics, trace []byte) {
		opts.Obs = obs.NewRun()
		d := mustRun(t, eco, browser.Firefox88(), opts)
		var m, tr bytes.Buffer
		if err := opts.Obs.WriteMetrics(&m); err != nil {
			t.Fatal(err)
		}
		if err := opts.Obs.WriteTrace(&tr); err != nil {
			t.Fatal(err)
		}
		return datasetBytes(t, d), m.Bytes(), tr.Bytes()
	}
	wantDS, wantMetrics, wantTrace := run(Options{})
	ds, metrics, trace := run(Options{SiteTimeout: time.Second})
	if !bytes.Equal(wantDS, ds) {
		t.Error("fault-free crawl with -site-timeout is not byte-identical to the stock crawl")
	}
	if !bytes.Equal(wantMetrics, metrics) {
		t.Errorf("fault-free -site-timeout changed the metrics export:\n%s\nwant:\n%s", metrics, wantMetrics)
	}
	if !bytes.Equal(wantTrace, trace) {
		t.Error("fault-free -site-timeout changed the trace export")
	}
}

// TestFaultRuntimeBytesPinned pins the fault runtime end to end: the
// serial crawl of `piicrawl -small -seed 7 -faults 0.3 -site-timeout 20s
// -o ds.json -metrics m.json` (245 retries, 3 opened breakers, 12
// refused fetches, 12 timed-out sites; the same bytes at -workers 4).
// A drift in any retry, breaker, fault-class or watchdog constant moves
// one of the two digests.
func TestFaultRuntimeBytesPinned(t *testing.T) {
	o := obs.NewRun()
	ds := mustRun(t, faultyEcosystem(t, 7, 0.3), browser.Firefox88(), Options{SiteTimeout: 20 * time.Second, Obs: o})
	var m bytes.Buffer
	if err := o.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"dataset", datasetBytes(t, ds), "1aa7d889860367dae02012b9c69868c2ac968c9ef5fb6d76e96ead89b0fa24da"},
		{"metrics", m.Bytes(), "25e461a64865f7900b2dfc74fe1e18233aa03d710eb661a1b739204827670fd9"},
	} {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s sha256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestPanicQuarantinesOnlyAffectedSite: a site whose host panics
// mid-flow is recovered, recorded as crashed with its pre-crash
// captures, and bundled into the quarantine; every other site matches
// the clean crawl.
func TestPanicQuarantinesOnlyAffectedSite(t *testing.T) {
	probe := webgen.MustGenerate(webgen.SmallConfig(41))
	poison := probe.Crawlable[1]

	cfg := webgen.SmallConfig(41)
	cfg.Faults = &faultsim.Config{Hosts: map[string]faultsim.Profile{
		// Serve two fetches, then blow up: the bundle gets a last
		// request and the record keeps pre-crash traffic.
		poison.Host(): {Kind: faultsim.KindPanic, FailAfter: 2},
	}}
	eco := webgen.MustGenerate(cfg)

	clean := mustRun(t, webgen.MustGenerate(webgen.SmallConfig(41)), browser.Firefox88(), Options{})
	cleanBySite := map[string]Outcome{}
	for i := range clean.Crawls {
		cleanBySite[clean.Crawls[i].Domain] = clean.Crawls[i].Outcome
	}

	dir := t.TempDir()
	q, err := NewQuarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Run(context.Background(), eco, browser.Firefox88(), Options{Quarantine: q})
	if err != nil {
		t.Fatal(err)
	}

	for i := range ds.Crawls {
		c := &ds.Crawls[i]
		if c.Domain == poison.Domain {
			if c.Outcome != OutcomeCrashed {
				t.Errorf("poison site outcome = %s, want crashed", c.Outcome)
			}
			if len(c.Records) == 0 {
				t.Error("crashed site lost its pre-crash captures")
			}
			continue
		}
		if c.Outcome != cleanBySite[c.Domain] {
			t.Errorf("%s: outcome %s, clean run had %s — the panic bled across sites", c.Domain, c.Outcome, cleanBySite[c.Domain])
		}
	}

	if q.Len() != 1 || q.Sites()[0] != poison.Domain {
		t.Fatalf("quarantine holds %v, want exactly [%s]", q.Sites(), poison.Domain)
	}
	bundles := readManifest(t, q.ManifestPath())
	if len(bundles) != 1 {
		t.Fatalf("manifest holds %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if b.Stage != StageCrawl || b.Domain != poison.Domain || b.Outcome != OutcomeCrashed {
		t.Errorf("bundle = %+v, want crawl-stage crash of %s", b, poison.Domain)
	}
	if b.Panic == "" || b.Stack == "" || b.LastRequest == "" {
		t.Errorf("bundle missing diagnostics: panic=%q last=%q stack %d bytes", b.Panic, b.LastRequest, len(b.Stack))
	}
	if b.EcoSeed != 41 {
		t.Errorf("bundle eco seed = %d, want 41", b.EcoSeed)
	}
	if _, err := os.Stat(filepath.Join(dir, poison.Domain+".json")); err != nil {
		t.Errorf("per-site bundle file missing: %v", err)
	}

	// A nil quarantine still contains the panic.
	ds2, err := Run(context.Background(), eco, browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for _, c := range ds2.Crawls {
		if c.Outcome == OutcomeCrashed {
			crashed++
		}
	}
	if crashed != 1 {
		t.Errorf("nil quarantine: %d crashed sites, want 1", crashed)
	}
}

// TestPanicQuarantineParallelMatchesSerial: crash containment must not
// disturb parallel/serial equivalence.
func TestPanicQuarantineParallelMatchesSerial(t *testing.T) {
	build := func() *webgen.Ecosystem {
		probe := webgen.MustGenerate(webgen.SmallConfig(41))
		cfg := webgen.SmallConfig(41)
		cfg.Faults = &faultsim.Config{Hosts: map[string]faultsim.Profile{
			probe.Crawlable[1].Host(): {Kind: faultsim.KindPanic, FailAfter: 2},
		}}
		return webgen.MustGenerate(cfg)
	}
	serial, err := Run(context.Background(), build(), browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), build(), browser.Firefox88(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(datasetBytes(t, serial), datasetBytes(t, par)) {
		t.Error("datasets with a quarantined site diverge between serial and parallel")
	}
}

// TestCrashedSiteNotRecrawledOnResume: a crashed site is checkpointed
// like any finished site, so resume does not re-run the poison.
func TestCrashedSiteNotRecrawledOnResume(t *testing.T) {
	probe := webgen.MustGenerate(webgen.SmallConfig(41))
	poison := probe.Crawlable[0]
	cfg := webgen.SmallConfig(41)
	cfg.Faults = &faultsim.Config{Hosts: map[string]faultsim.Profile{
		poison.Host(): {Kind: faultsim.KindPanic, Permanent: true},
	}}
	eco := webgen.MustGenerate(cfg)

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	full, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	// Resume over the finished checkpoint with a quarantine installed:
	// nothing re-crawls, so nothing can panic and the quarantine stays
	// empty.
	q, err := NewQuarantine(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path, Resume: true, Quarantine: q})
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 0 {
		t.Errorf("resume re-ran the crashed site (%d quarantined)", q.Len())
	}
	if !bytes.Equal(datasetBytes(t, full), datasetBytes(t, resumed)) {
		t.Error("resumed dataset differs from the original")
	}
}

// cancelAt is a site source that cancels its run when the crawl takes
// site n: the site in flight then is dropped, as a Ctrl-C mid-crawl
// drops it.
type cancelAt struct {
	site.Source
	n      int
	cancel context.CancelFunc
}

func (s cancelAt) At(i int) *site.Site {
	if i == s.n {
		s.cancel()
	}
	return s.Source.At(i)
}

// TestCancelMidCrawlLeavesResumableCheckpoint: cancelling a serial
// checkpointed crawl mid-run returns context.Canceled, keeps a valid
// checkpoint of exactly the finished sites, and a resume completes to a
// byte-identical dataset.
func TestCancelMidCrawlLeavesResumableCheckpoint(t *testing.T) {
	eco := faultyEcosystem(t, 53, 0.3)
	full, err := Run(context.Background(), eco, browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, full)

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	_, err = Run(ctx, eco, browser.Firefox88(), Options{CheckpointPath: path, Source: cancelAt{eco.Universe(), 3, cancel}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled crawl returned %v, want context.Canceled", err)
	}

	var summary ResumeSummary
	resumed, err := Run(context.Background(), eco, browser.Firefox88(), Options{
		CheckpointPath: path, Resume: true,
		OnResume: func(rs ResumeSummary) { summary = rs },
	})
	if err != nil {
		t.Fatal(err)
	}
	if summary.Completed != 3 || summary.TornRecords != 0 {
		t.Errorf("resume summary = %+v, want 3 completed, 0 torn", summary)
	}
	if !bytes.Equal(want, datasetBytes(t, resumed)) {
		t.Error("resumed dataset after cancellation is not byte-identical to the uninterrupted run")
	}
}

// TestCancelParallelCrawlResumesByteIdentical: parallel cancellation
// discards every in-flight site (workers race the cancel), yet resume
// still reproduces the uninterrupted dataset exactly.
func TestCancelParallelCrawlResumesByteIdentical(t *testing.T) {
	eco := faultyEcosystem(t, 53, 0.3)
	full, err := Run(context.Background(), eco, browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, full)

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	_, err = Run(ctx, eco, browser.Firefox88(), Options{CheckpointPath: path, Workers: 4, Source: cancelAt{eco.Universe(), 6, cancel}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled crawl returned %v, want context.Canceled", err)
	}

	resumed, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path, Resume: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, datasetBytes(t, resumed)) {
		t.Error("resumed dataset after parallel cancellation is not byte-identical")
	}
}

// TestCancelledContextStopsBeforeAnySite: a pre-cancelled context never
// crawls anything.
func TestCancelledContextStopsBeforeAnySite(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(11))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := CrawlStream(ctx, eco, browser.Firefox88(), Options{}, func(SiteResult) error {
		t.Fatal("a site was emitted under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResumeReportsTornRecords: garbage appended to a checkpoint (the
// kill-mid-record case) is counted and reported, not silently dropped.
func TestResumeReportsTornRecords(t *testing.T) {
	eco := faultyEcosystem(t, 53, 0.3)
	full, err := Run(context.Background(), eco, browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{
		Source: site.Slice(eco.Sites[:3]), CheckpointPath: path,
	}); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: half a JSON line (the kill) plus a stray line that
	// a corrupted page might leave behind it.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crawl":{"domain":"torn.e` + "\n" + `garbage tail` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var summary ResumeSummary
	resumed, err := Run(context.Background(), eco, browser.Firefox88(), Options{
		CheckpointPath: path, Resume: true,
		OnResume: func(rs ResumeSummary) { summary = rs },
	})
	if err != nil {
		t.Fatal(err)
	}
	if summary.Completed != 3 {
		t.Errorf("resume summary completed = %d, want 3", summary.Completed)
	}
	if summary.TornRecords != 2 {
		t.Errorf("resume summary torn_records = %d, want 2", summary.TornRecords)
	}
	if !bytes.Equal(datasetBytes(t, full), datasetBytes(t, resumed)) {
		t.Error("resume over a torn checkpoint is not byte-identical to the uninterrupted run")
	}
}
