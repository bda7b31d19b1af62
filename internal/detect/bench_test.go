package detect

import (
	"net/url"
	"testing"

	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/webgen"
)

// The detect benchmarks compare the legacy single-phase oracle against
// the two-phase engine on the workloads that dominate a study: the
// per-record scan (BenchmarkScan — clean records are the overwhelming
// majority, so the no-leak path is the one that matters) and the
// per-site batch (BenchmarkDetectSite, over a real crawled ecosystem).
// `make bench` records them in BENCH_detect.json.

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	zone := dnssim.NewZone()
	eng, err := NewEngine(pii.Default(), dnssim.NewClassifier(zone), Config{})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchRecords returns a clean third-party record (the steady state) and
// a leaky one (percent-encoded email in the query).
func benchRecords() (clean, leaky httpmodel.Record) {
	clean = httpmodel.Record{Request: httpmodel.Request{
		URL:     "https://t.adnxs.com/ping?v=2&cb=123456&sess=zZ9yY8xX7",
		Headers: map[string]string{"Referer": "https://www.shop.example.com/cart"},
		Cookies: []httpmodel.Cookie{
			{Name: "uid", Value: "a1b2c3d4e5f6", Domain: "adnxs.com"},
			{Name: "sess", Value: "deadbeef00", Domain: "adnxs.com"},
		},
		Body:     []byte("v=2&cb=654321"),
		BodyType: "application/x-www-form-urlencoded",
	}}
	leaky = httpmodel.Record{Request: httpmodel.Request{
		URL: "https://t.adnxs.com/c?e=" + url.QueryEscape(pii.Default().Email) + "&v=2",
	}}
	return clean, leaky
}

func BenchmarkScan(b *testing.B) {
	eng := benchEngine(b)
	legacy := LegacyFor(eng)
	clean, leaky := benchRecords()
	site := "shop.example.com"

	run := func(name string, rec *httpmodel.Record) {
		b.Run("legacy/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				legacy.DetectRecord(site, rec)
			}
		})
		b.Run("scanner/"+name, func(b *testing.B) {
			sc := eng.NewScanner()
			sc.DetectRecord(site, rec) // warm the receiver memo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.DetectRecord(site, rec)
			}
		})
	}
	run("clean", &clean)
	run("leaky", &leaky)
}

func BenchmarkDetectSite(b *testing.B) {
	eco, err := webgen.Generate(webgen.SmallConfig(37))
	if err != nil {
		b.Fatal(err)
	}
	cname := dnssim.NewClassifier(eco.Zone)
	eng := MustNewEngine(eco.Persona, cname, Config{})
	legacy := LegacyFor(eng)
	succ := crawlDataset(b, eco).Successes()
	if len(succ) == 0 {
		b.Fatal("no successful crawls")
	}

	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := succ[i%len(succ)]
			legacy.DetectSite(c.Domain, c.Records)
		}
	})
	b.Run("scanner", func(b *testing.B) {
		sc := eng.NewScanner()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := succ[i%len(succ)]
			sc.DetectSite(c.Domain, c.Records)
		}
	})
	b.Run("engine-pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := succ[i%len(succ)]
			eng.DetectSite(c.Domain, c.Records)
		}
	})
}
