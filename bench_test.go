package piileak

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/obs"
	"piileak/internal/pii"
	"piileak/internal/pipeline"
	"piileak/internal/policy"
	"piileak/internal/tracking"
	"piileak/internal/webgen"
)

// Each benchmark regenerates one of the paper's tables or figures
// (DESIGN.md's per-experiment index) over the shared paper-scale study
// and reports the key measured quantity as a custom metric, so
// `go test -bench .` both times the pipeline stage and reprints the
// paper-vs-measured numbers recorded in EXPERIMENTS.md.

// fullCrawl is the paper-scale crawl with every record kept, shared by
// the benchmarks that rescan raw captures: a study releases its
// captures after detection.
var fullCrawl = struct {
	once sync.Once
	ds   *crawler.Dataset
	err  error
}{}

func crawlDataset(b *testing.B) *crawler.Dataset {
	s := study(b)
	fullCrawl.once.Do(func() {
		fullCrawl.ds, fullCrawl.err = crawler.Run(context.Background(), s.Eco, s.Config.Browser, crawler.Options{})
	})
	if fullCrawl.err != nil {
		b.Fatal(fullCrawl.err)
	}
	return fullCrawl.ds
}

func BenchmarkE0_CollectionFunnel(b *testing.B) {
	eco := study(b).Eco
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Successes()) != Paper.CrawledSites {
			b.Fatalf("crawled = %d", len(ds.Successes()))
		}
	}
	b.ReportMetric(float64(Paper.CrawledSites), "crawled_sites")
}

func BenchmarkE1_HeadlineLeakage(b *testing.B) {
	s := study(b)
	ds := crawlDataset(b)
	sc := s.Engine.NewScanner()
	var h core.Headline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var leaks []core.Leak
		for _, c := range ds.Successes() {
			leaks = append(leaks, sc.DetectSite(c.Domain, c.Records)...)
		}
		h = core.Analyze(leaks, len(ds.Successes())).Headline()
	}
	b.ReportMetric(float64(h.Senders), "senders")
	b.ReportMetric(float64(h.Receivers), "receivers")
	b.ReportMetric(h.LeakRate, "leak_rate_pct")
	b.ReportMetric(float64(h.LeakyRequests), "leaky_requests")
}

func BenchmarkE2_Table1aByMethod(b *testing.B) {
	s := study(b)
	var rows []core.BreakdownRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = s.Analysis.ByMethod()
	}
	for _, r := range rows {
		if r.Label == "uri" {
			b.ReportMetric(float64(r.Senders), "uri_senders")
		}
		if r.Label == "cookie" {
			b.ReportMetric(float64(r.Senders), "cookie_senders")
		}
	}
}

func BenchmarkE3_Table1bByEncoding(b *testing.B) {
	s := study(b)
	var rows []core.BreakdownRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = s.Analysis.ByEncoding()
	}
	for _, r := range rows {
		if r.Label == "sha256" {
			b.ReportMetric(float64(r.Senders), "sha256_senders")
		}
	}
}

func BenchmarkE4_Table1cByPIIType(b *testing.B) {
	s := study(b)
	var rows []core.BreakdownRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = s.Analysis.ByPIIType()
	}
	for _, r := range rows {
		if r.Label == "email,name" {
			b.ReportMetric(float64(r.Senders), "email_name_senders")
		}
	}
}

func BenchmarkE5_Figure2TopReceivers(b *testing.B) {
	s := study(b)
	var top []core.ReceiverRank
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top = s.Analysis.TopReceivers(15)
	}
	if len(top) > 0 {
		b.ReportMetric(top[0].SenderPct, "facebook_sender_pct")
	}
}

func BenchmarkE6_Table2TrackingProviders(b *testing.B) {
	s := study(b)
	var cls *tracking.Classification
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls = tracking.Classify(s.Leaks)
	}
	b.ReportMetric(float64(len(cls.Trackers)), "tracking_providers")
	b.ReportMetric(float64(cls.MultiSenderID), "same_id_receivers")
	b.ReportMetric(float64(cls.SingleSender), "single_sender_receivers")
}

func BenchmarkE7_EmailFollowup(b *testing.B) {
	s := study(b)
	var inbox, spam int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inbox = s.Dataset.Mailbox.Count("inbox")
		spam = s.Dataset.Mailbox.Count("spam")
	}
	b.ReportMetric(float64(inbox), "inbox_mails")
	b.ReportMetric(float64(spam), "spam_mails")
}

func BenchmarkE8_Table3PolicyDisclosure(b *testing.B) {
	s := study(b)
	var tbl policy.Table3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.PolicyAudit()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tbl.NotSpecific), "not_specific")
	b.ReportMetric(float64(tbl.Specific), "specific")
}

func BenchmarkE9_BrowserCountermeasures(b *testing.B) {
	s := study(b)
	var braveSenders, braveReceivers int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := s.EvaluateBrowsers()
		for _, r := range results {
			if strings.HasPrefix(r.Browser, "Brave") {
				braveSenders, braveReceivers = r.Senders, r.Receivers
			}
		}
	}
	b.ReportMetric(float64(braveSenders), "brave_surviving_senders")
	b.ReportMetric(float64(braveReceivers), "brave_surviving_receivers")
}

func BenchmarkE10_Table4Blocklists(b *testing.B) {
	s := study(b)
	var epSenders int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t4, err := s.EvaluateBlocklists()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range t4.Rows {
			if r.Metric == "senders" && r.Method == "total" {
				epSenders = r.EasyPrivacy.Count
			}
		}
	}
	b.ReportMetric(float64(epSenders), "easyprivacy_senders")
}

func BenchmarkA1_CandidateDepth(b *testing.B) {
	persona := pii.Default()
	for _, depth := range []int{1, 2} {
		b.Run(map[int]string{1: "depth1", 2: "depth2"}[depth], func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				cs := pii.MustBuildCandidates(persona, pii.CandidateConfig{MaxDepth: depth})
				size = cs.Size()
			}
			b.ReportMetric(float64(size), "tokens")
		})
	}
}

func BenchmarkA2_MatcherAblation(b *testing.B) {
	s := study(b)
	// One representative leaky request blob.
	var blob []byte
	for _, c := range crawlDataset(b).Successes() {
		for i := range c.Records {
			if len(c.Records[i].Request.URL) > 80 {
				blob = []byte(c.Records[i].Request.URL)
				break
			}
		}
		if blob != nil {
			break
		}
	}
	b.Run("aho-corasick", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			s.Candidates.FindIn(blob)
		}
	})
	b.Run("naive", func(b *testing.B) {
		tokens := s.Candidates.Tokens()
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			for j := range tokens {
				_ = strings.Contains(string(blob), tokens[j].Value)
			}
		}
	})
}

func BenchmarkA3_DecodeVsCandidates(b *testing.B) {
	s := study(b)
	hashOnly, err := detect.NewEngine(s.Eco.Persona, s.Engine.CNAME(), detect.Config{
		Candidates: pii.CandidateConfig{
			MaxDepth:   1,
			Transforms: []string{"md5", "sha1", "sha256"},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	succ := crawlDataset(b).Successes()
	b.Run("candidate-set", func(b *testing.B) {
		sc := s.Engine.NewScanner()
		for i := 0; i < b.N; i++ {
			c := succ[i%len(succ)]
			sc.DetectSite(c.Domain, c.Records)
		}
	})
	b.Run("decode-based", func(b *testing.B) {
		sc := hashOnly.NewScanner()
		for i := 0; i < b.N; i++ {
			c := succ[i%len(succ)]
			for j := range c.Records {
				sc.DecodeDetect(c.Domain, &c.Records[j], 2)
			}
		}
	})
}

// BenchmarkPipeline compares the batch crawl-then-detect path against
// the streaming pipeline at 1, 4 and 8 workers over the paper-scale
// ecosystem. The streamed variants also report the capture high-water
// mark — the pipeline's peak-memory bound in sites.
func BenchmarkPipeline(b *testing.B) {
	s := study(b)
	eco, profile, det := s.Eco, s.Config.Browser, s.Engine

	b.Run("batch", func(b *testing.B) {
		var leaks int
		sc := det.NewScanner()
		for i := 0; i < b.N; i++ {
			ds, err := crawler.Run(context.Background(), eco, profile, crawler.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var all []core.Leak
			for _, c := range ds.Successes() {
				all = append(all, sc.DetectSite(c.Domain, c.Records)...)
			}
			leaks = len(all)
		}
		b.ReportMetric(float64(leaks), "leaks")
	})

	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("streamed-%dw", w), func(b *testing.B) {
			var res *pipeline.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = pipeline.Run(context.Background(), eco, profile, det, pipeline.Options{
					Options: crawler.Options{Workers: w}, DetectWorkers: w,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Leaks)), "leaks")
			b.ReportMetric(float64(res.Stats.CaptureHighWater), "capture_high_water")
		})
	}
}

// BenchmarkObsOverhead measures the observability layer's cost on the
// paper-scale fused pipeline: the nil-observer run (every instrument
// call is a nil-receiver early return — the default every study pays)
// against the same run with a live observer collecting counters,
// histograms and per-site spans. The nil arm is the one the ≤2%
// overhead budget applies to.
func BenchmarkObsOverhead(b *testing.B) {
	s := study(b)
	eco, profile, det := s.Eco, s.Config.Browser, s.Engine
	for _, tc := range []struct {
		name string
		obs  func() *obs.Run
	}{
		{"off", func() *obs.Run { return nil }},
		{"on", func() *obs.Run { return obs.NewRun(nil) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var res *pipeline.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = pipeline.Run(context.Background(), eco, profile, det, pipeline.Options{
					Options: crawler.Options{Workers: 4, Obs: tc.obs()}, DetectWorkers: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Leaks)), "leaks")
		})
	}
}

// BenchmarkWatchdog measures the crash-only runtime's overhead on the
// fault-free paper-scale crawl: the stock resilient path against the
// same crawl under a per-site watchdog budget, whose deadline check
// rides on every fetch. The budget never trips fault-free (the virtual
// clock only advances under injected faults), so the delta is pure
// bookkeeping cost.
func BenchmarkWatchdog(b *testing.B) {
	s := study(b)
	eco, profile := s.Eco, s.Config.Browser
	for _, tc := range []struct {
		name string
		opts crawler.Options
	}{
		{"off", crawler.Options{}},
		{"on", crawler.Options{SiteTimeout: time.Minute}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var records int
			for i := 0; i < b.N; i++ {
				ds, err := crawler.Run(context.Background(), eco, profile, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				records = ds.TotalRecords()
			}
			b.ReportMetric(float64(records), "records")
		})
	}
}

// BenchmarkFullStudy measures the complete pipeline: ecosystem
// generation, crawl, detection and analysis at paper scale.
func BenchmarkFullStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := NewStudy(Config{
			Ecosystem:      webgen.DefaultConfig(),
			CandidateDepth: 2,
			Browser:        browser.Firefox88(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
