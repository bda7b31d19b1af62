package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// exercise applies one fixed instrument sequence — the test's stand-in
// for a seeded run.
func exercise(r *Run) {
	r.SetInfo(RunInfo{EcoSeed: 2021, Browser: "Firefox 88", Sites: 3})
	r.Count(MetricCrawlSites, 3)
	r.CountKind(MetricCrawlOutcome, "success", 2)
	r.CountKind(MetricCrawlOutcome, "unreachable", 1)
	r.CountKind(MetricFaultInjected, "conn_timeout", 4)
	r.Count(MetricFetchAttempts, 9)
	r.Count(MetricFetchRetries, 6)
	r.GaugeSet(MetricUniverseMaterialized, 4)
	r.Observe(HistSiteRecords, 12)
	r.Observe(HistSiteRecords, 40)
	r.Observe(HistSiteRecords, 0)
	for i, site := range []string{"shop0.com", "shop1.com", "shop2.com"} {
		sp := r.StartSpan(StageCrawl, site, i)
		sp.SetN(10 + i)
		sp.SetOutcome("success")
		sp.AddDuration(time.Duration(i) * time.Second)
		sp.End()
		dp := r.StartSpan(StageDetect, site, i)
		dp.SetN(i)
		dp.End()
	}
}

// TestExportDeterministic: two observers fed the identical sequence
// export byte-identical metrics and trace files — the property the
// CLI's -metrics/-trace contract rests on.
func TestExportDeterministic(t *testing.T) {
	var m1, m2, t1, t2 bytes.Buffer
	a, b := NewRun(), NewRun()
	exercise(a)
	exercise(b)
	if err := a.WriteMetrics(&m1); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteMetrics(&m2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Errorf("metrics exports differ:\n%s\n----\n%s", m1.String(), m2.String())
	}
	if err := a.WriteTrace(&t1); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteTrace(&t2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Errorf("trace exports differ:\n%s\n----\n%s", t1.String(), t2.String())
	}
	if m1.Len() == 0 || t1.Len() == 0 {
		t.Fatal("empty export")
	}
}

// TestExportOrderIndependent: counters are sums and the export sorts
// every map, so the same instrument calls in a different interleaving
// (a parallel run's reality) export the same bytes. Spans likewise sort
// by (index, stage) regardless of End order.
func TestExportOrderIndependent(t *testing.T) {
	a, b := NewRun(), NewRun()
	exercise(a)

	b.SetInfo(RunInfo{EcoSeed: 2021, Browser: "Firefox 88", Sites: 3})
	for i := 2; i >= 0; i-- {
		site := []string{"shop0.com", "shop1.com", "shop2.com"}[i]
		dp := b.StartSpan(StageDetect, site, i)
		dp.SetN(i)
		dp.End()
		sp := b.StartSpan(StageCrawl, site, i)
		sp.SetN(10 + i)
		sp.SetOutcome("success")
		sp.AddDuration(time.Duration(i) * time.Second)
		sp.End()
	}
	b.Observe(HistSiteRecords, 0)
	b.Observe(HistSiteRecords, 40)
	b.Observe(HistSiteRecords, 12)
	b.GaugeSet(MetricUniverseMaterialized, 4)
	b.Count(MetricFetchRetries, 6)
	b.Count(MetricFetchAttempts, 9)
	b.CountKind(MetricFaultInjected, "conn_timeout", 4)
	b.CountKind(MetricCrawlOutcome, "unreachable", 1)
	b.CountKind(MetricCrawlOutcome, "success", 2)
	for i := 0; i < 3; i++ {
		b.Count(MetricCrawlSites, 1)
	}

	var ma, mb, ta, tb bytes.Buffer
	if err := a.WriteMetrics(&ma); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ma.Bytes(), mb.Bytes()) {
		t.Errorf("reordered metrics differ:\n%s\n----\n%s", ma.String(), mb.String())
	}
	if err := a.WriteTrace(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Errorf("reordered traces differ:\n%s\n----\n%s", ta.String(), tb.String())
	}
}

// TestNilRunZeroAlloc: the no-op observer's instrument calls allocate
// nothing — the ISSUE's hot-path guarantee, asserted here and
// benchmarked end-to-end in BenchmarkObsOverhead.
func TestNilRunZeroAlloc(t *testing.T) {
	var r *Run
	allocs := testing.AllocsPerRun(1000, func() {
		r.Count(MetricCrawlSites, 1)
		r.CountKind(MetricCrawlOutcome, "success", 1)
		r.GaugeSet(MetricUniverseMaterialized, 3)
		r.GaugeMax(MetricUniverseMaterialized, 5)
		r.Observe(HistSiteRecords, 7)
		sp := r.StartSpan(StageCrawl, "shop0.com", 0)
		sp.SetN(1)
		sp.SetOutcome("success")
		sp.AddDuration(time.Second)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil observer allocates: %v allocs/op, want 0", allocs)
	}
}

// TestManifestFoldsRegistry: the manifest pulls the right counters into
// the right summary slots, including labeled families.
func TestManifestFoldsRegistry(t *testing.T) {
	r := NewRun()
	exercise(r)
	r.CountKind(MetricQuarantined, "detect", 1)
	r.Count(MetricWatchdogTimeouts, 2)
	r.Count(MetricCheckpointAppends, 3)

	m := r.Manifest()
	if m.Schema != 1 {
		t.Errorf("schema = %d, want 1", m.Schema)
	}
	if m.Run.EcoSeed != 2021 || m.Run.Sites != 3 {
		t.Errorf("run info = %+v", m.Run)
	}
	if m.Outcomes["success"] != 2 || m.Outcomes["unreachable"] != 1 {
		t.Errorf("outcomes = %v", m.Outcomes)
	}
	if m.Faults["conn_timeout"] != 4 {
		t.Errorf("faults = %v", m.Faults)
	}
	if m.Quarantined["detect"] != 1 {
		t.Errorf("quarantined = %v", m.Quarantined)
	}
	if m.Resilience.Attempts != 9 || m.Resilience.Retries != 6 || m.Resilience.WatchdogTimeouts != 2 {
		t.Errorf("resilience = %+v", m.Resilience)
	}
	if m.Checkpoint.Appends != 3 {
		t.Errorf("checkpoint = %+v", m.Checkpoint)
	}
	if m.Pipeline.CrawledSites != 3 {
		t.Errorf("pipeline = %+v", m.Pipeline)
	}
}

// TestNilRunExports: a nil observer still exports valid (empty) files.
func TestNilRunExports(t *testing.T) {
	var r *Run
	var m, tr bytes.Buffer
	if err := r.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTrace(&tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.String(), `"schema": 1`) {
		t.Errorf("nil metrics export missing manifest: %s", m.String())
	}
	if tr.Len() != 0 {
		t.Errorf("nil trace export non-empty: %q", tr.String())
	}
	if m := r.Manifest(); m.Schema != 1 {
		t.Errorf("nil manifest schema = %d", m.Schema)
	}
}

// TestGaugeMax ratchets up, never down.
func TestGaugeMax(t *testing.T) {
	r := NewRun()
	r.GaugeMax(MetricUniverseMaterialized, 3)
	r.GaugeMax(MetricUniverseMaterialized, 7)
	r.GaugeMax(MetricUniverseMaterialized, 5)
	if got := r.Snapshot().Gauges[MetricUniverseMaterialized]; got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

// TestWatermark tracks the high-water mark across inc/dec churn.
func TestWatermark(t *testing.T) {
	var w Watermark
	w.Inc()
	w.Inc()
	w.Inc()
	w.Dec()
	w.Inc()
	w.Dec()
	w.Dec()
	if w.High() != 3 {
		t.Errorf("high = %d, want 3", w.High())
	}
}

// TestHistogramSnapshot checks the summary stats and magnitude buckets.
func TestHistogramSnapshot(t *testing.T) {
	r := NewRun()
	for _, v := range []int64{0, 1, 2, 3, 100} {
		r.Observe(HistSiteLeaks, v)
	}
	h := r.Snapshot().Histograms[HistSiteLeaks]
	if h.Count != 5 || h.Sum != 106 || h.Min != 0 || h.Max != 100 {
		t.Errorf("snapshot = %+v", h)
	}
	var n int64
	for _, b := range h.Buckets {
		n += b
	}
	if n != 5 {
		t.Errorf("bucket total = %d, want 5", n)
	}
}

// TestSpanClock: a span reads no clock, so its start is 0 and its
// duration is what AddDuration gave it.
func TestSpanClock(t *testing.T) {
	r := NewRun()
	sp := r.StartSpan(StageCrawl, "shop0.com", 0)
	sp.End()
	tr := r.Trace()
	if len(tr) != 1 || tr[0].StartMS != 0 || tr[0].DurMS != 0 {
		t.Errorf("span = %+v, want zero times", tr)
	}

	sp2 := r.StartSpan(StageDetect, "shop1.com", 1)
	sp2.AddDuration(250 * time.Millisecond)
	sp2.AddDuration(time.Second)
	sp2.End()
	tr = r.Trace()
	if len(tr) != 2 || tr[1].StartMS != 0 || tr[1].DurMS != 1250 {
		t.Errorf("spans = %+v, want the second at start_ms 0, dur_ms 1250", tr)
	}
}
