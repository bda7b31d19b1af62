package piileak

import (
	"context"
	"io"
	"maps"
	"reflect"
	"sync"
	"testing"

	"piileak/internal/crawler"
	"piileak/internal/httpmodel"
	"piileak/internal/pcap"
)

// TestSharedRefererMaps pins the browser's shared Referer headers: the
// subresource records of one page visit that carry the same Referer
// share one header map, and nothing that reads a capture writes to it.
// A dataset crawl on two workers is read at once by two detection
// scanners, the §7.2 request reduction, the dataset's JSON export and
// the pcap writer (the module writes no HAR; it only reads one), and
// every record's headers must be what they were before. Under the race
// detector a write into a shared map from any of them is a report.
func TestSharedRefererMaps(t *testing.T) {
	s, err := NewStudy(SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := crawler.Run(context.Background(), s.Eco, s.Config.Browser, crawler.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	shared := 0
	before := map[*httpmodel.Record]map[string]string{}
	for _, c := range ds.Crawls {
		var visit map[string]uintptr // one page visit's Referer maps, by value
		for i := range c.Records {
			r := &c.Records[i]
			before[r] = maps.Clone(r.Request.Headers)
			if i == 0 || r.Page != c.Records[i-1].Page {
				visit = map[string]uintptr{}
			}
			ref := r.Request.Headers["Referer"]
			if ref == "" || r.Request.Type == httpmodel.TypeDocument {
				continue // a navigation's Referer is its own
			}
			p := reflect.ValueOf(r.Request.Headers).Pointer()
			if q, ok := visit[ref]; !ok {
				visit[ref] = p
			} else if q != p {
				t.Fatalf("%s: two records of page %s carry Referer %q in different maps", c.Domain, r.Page, ref)
			} else {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two records of a page share a Referer map")
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := s.Engine.NewScanner()
			for _, c := range ds.Successes() {
				sc.DetectSite(c.Domain, c.Records)
			}
		}()
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		for _, c := range ds.Crawls {
			httpmodel.ReduceRecords(c.Records)
		}
	}()
	go func() {
		defer wg.Done()
		if err := ds.WriteJSON(io.Discard); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		pw := pcap.NewWriter(io.Discard)
		for _, c := range ds.Crawls {
			if err := pw.WriteRecords(c.Records); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	for r, want := range before {
		if !maps.Equal(r.Request.Headers, want) {
			t.Fatalf("record %d of page %s: headers %v after reading, %v before", r.Seq, r.Page, r.Request.Headers, want)
		}
	}
}
