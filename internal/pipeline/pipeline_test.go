package pipeline

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/webgen"
)

func fixture(t testing.TB, seed uint64) (*webgen.Ecosystem, browser.Profile, *detect.Engine) {
	t.Helper()
	eco, err := webgen.Generate(webgen.SmallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := detect.NewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eco, browser.Firefox88(), eng
}

// TestRunMatchesBatch: the pipeline must reproduce the batch
// crawl-then-detect path exactly — same leaks in the same order, the
// same record count, and a thin dataset byte-identical to the crawl's
// dataset with its records stripped.
func TestRunMatchesBatch(t *testing.T) {
	eco, profile, det := fixture(t, 29)

	batchDS, err := crawler.Run(context.Background(), eco, profile, crawler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var batchLeaks []core.Leak
	for _, c := range batchDS.Successes() {
		batchLeaks = append(batchLeaks, det.DetectSite(c.Domain, c.Records)...)
	}
	thin := *batchDS
	thin.Crawls = append([]crawler.SiteCrawl(nil), batchDS.Crawls...)
	for i := range thin.Crawls {
		thin.Crawls[i].Records = nil
	}
	var want bytes.Buffer
	if err := thin.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{}},
		{"parallel", Options{Options: crawler.Options{Workers: 4}, DetectWorkers: 3}},
	} {
		res, err := Run(context.Background(), eco, profile, det, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(res.Leaks, batchLeaks) {
			t.Errorf("%s: leaks diverge from batch (%d vs %d)", tc.name, len(res.Leaks), len(batchLeaks))
		}
		var got bytes.Buffer
		if err := res.Dataset.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: thin dataset is not byte-identical to the batch crawl minus records", tc.name)
		}
		if res.TotalRecords != batchDS.TotalRecords() {
			t.Errorf("%s: TotalRecords = %d, want %d", tc.name, res.TotalRecords, batchDS.TotalRecords())
		}
	}
}

// TestMemoryBound demonstrates the pipeline's memory guarantee: the
// number of record-bearing captures simultaneously alive never exceeds
// crawl workers + channel buffer + detect workers, and every capture's
// records are released after detection.
func TestMemoryBound(t *testing.T) {
	eco, profile, det := fixture(t, 29)

	for _, tc := range []struct {
		name                          string
		crawlW, detectW, buffer, want int
	}{
		{"serial", 0, 0, 0, 1 + 2 + 1},
		{"parallel", 4, 2, 2, 4 + 2 + 2},
		{"wide", 8, 4, 1, 8 + 1 + 4},
	} {
		res, err := Run(context.Background(), eco, profile, det, Options{
			Options: crawler.Options{Workers: tc.crawlW}, DetectWorkers: tc.detectW, Buffer: tc.buffer,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		hw := res.Stats.CaptureHighWater
		if hw > tc.want {
			t.Errorf("%s: capture high-water %d exceeds bound %d", tc.name, hw, tc.want)
		}
		if hw < 1 {
			t.Errorf("%s: capture high-water %d, want >= 1", tc.name, hw)
		}
		if res.Stats.Released == 0 {
			t.Errorf("%s: no captures released", tc.name)
		}
		if res.Stats.Released > res.Stats.Sites {
			t.Errorf("%s: released %d > sites %d", tc.name, res.Stats.Released, res.Stats.Sites)
		}
		for i := range res.Dataset.Crawls {
			if len(res.Dataset.Crawls[i].Records) != 0 {
				t.Fatalf("%s: site %s retained records after release", tc.name, res.Dataset.Crawls[i].Domain)
			}
		}
		if res.TotalRecords == 0 {
			t.Errorf("%s: lost the pre-release record count", tc.name)
		}
	}
}

// TestProgressEvents pins the progress contract: both stages report
// every site, monotonically, with the final detect event carrying the
// total leak count.
func TestProgressEvents(t *testing.T) {
	eco, profile, det := fixture(t, 29)

	crawlDone, detectDone, lastLeaks := 0, 0, -1
	res, err := Run(context.Background(), eco, profile, det, Options{
		Options: crawler.Options{Workers: 3}, DetectWorkers: 2,
		Progress: func(ev Event) {
			switch ev.Stage {
			case "crawl":
				if ev.Done != crawlDone+1 {
					t.Errorf("crawl events not monotonic: %d after %d", ev.Done, crawlDone)
				}
				crawlDone = ev.Done
			case "detect":
				if ev.Done != detectDone+1 {
					t.Errorf("detect events not monotonic: %d after %d", ev.Done, detectDone)
				}
				detectDone = ev.Done
				lastLeaks = ev.Leaks
			default:
				t.Errorf("unknown stage %q", ev.Stage)
			}
			if ev.Total != len(eco.Sites) {
				t.Errorf("event total = %d, want %d", ev.Total, len(eco.Sites))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if crawlDone != len(eco.Sites) || detectDone != len(eco.Sites) {
		t.Errorf("stage counters = crawl %d / detect %d, want %d", crawlDone, detectDone, len(eco.Sites))
	}
	if lastLeaks != len(res.Leaks) {
		t.Errorf("final detect event reported %d leaks, want %d", lastLeaks, len(res.Leaks))
	}
}

// TestResultStoreViews: the Result store's derived views must agree
// with the standalone computations over the leak list.
func TestResultStoreViews(t *testing.T) {
	eco, profile, det := fixture(t, 29)
	res, err := Run(context.Background(), eco, profile, det, Options{Options: crawler.Options{Workers: 2}, DetectWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Analysis, core.Analyze(res.Leaks, res.Stats.Successes)) {
		t.Error("incremental analysis diverges from core.Analyze over the same leaks")
	}
	senders := map[string]bool{}
	for i := range res.Leaks {
		senders[res.Leaks[i].Site] = true
	}
	if !reflect.DeepEqual(res.Senders, senders) {
		t.Error("sender set diverges from the leak list's distinct sites")
	}
	for site := range senders {
		if !res.Requests.Has(site) {
			t.Errorf("request index missing leaky site %s", site)
		}
	}
}
