package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// fuzzShard is the fuzz corpus' shard: shard 0 of 2 over a five-site
// universe, whose sites are the universe's a, c and e.
var fuzzShard = site.Slice{{Domain: "a.example"}, {Domain: "c.example"}, {Domain: "e.example"}}

// fuzzResultBytes builds a small, fully-valid sealed shard result — a
// checkpoint of fuzzShard, written and sealed as a worker does — the
// fuzz corpus' honest seed, which the mutator then tears, truncates and
// corrupts. It returns the bytes and the header they carry.
func fuzzResultBytes(f *testing.F) ([]byte, crawler.Header) {
	f.Helper()
	eco := &webgen.Ecosystem{Config: webgen.Config{Seed: 7, ShoppingSites: 5, UniverseSize: 5}}
	opts := crawler.Options{CheckpointPath: filepath.Join(f.TempDir(), "seed.jsonl"), Shards: 2}
	c, err := crawler.OpenCheckpoint(eco, browser.Firefox88(), opts, "", nil)
	if err != nil {
		f.Fatal(err)
	}
	sites := []crawler.SiteResult{
		{Index: 0, Crawl: crawler.SiteCrawl{Domain: "a.example", Outcome: crawler.OutcomeSuccess}, Records: 3},
		{Index: 2, Crawl: crawler.SiteCrawl{Domain: "e.example", Outcome: crawler.OutcomeSuccess}, Records: 1},
		{Index: 1, Crawl: crawler.SiteCrawl{Domain: "c.example", Outcome: crawler.OutcomeUnreachable}},
	}
	for i := range sites {
		if err := c.Append(&sites[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := c.Complete(); err != nil {
		f.Fatal(err)
	}
	want := crawler.NewHeader(eco, browser.Firefox88(), opts, "")
	n := 0
	if _, err := crawler.ReadSealed(opts.CheckpointPath, want, fuzzShard, func(crawler.SiteResult) { n++ }); err != nil {
		f.Fatalf("seed corpus does not verify: %v", err)
	}
	if n != len(sites) {
		f.Fatalf("seed corpus lost sites: %d of %d", n, len(sites))
	}
	data, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		f.Fatal(err)
	}
	return data, want
}

// FuzzParseResult hardens the shard result reader, crawler.ReadSealed,
// the way the supervisor and the merge call it: whatever bytes a crashed
// or malicious worker leaves behind, it never panics. A file the
// decoding read (the merge's) accepts, the hashing read (the
// supervisor's) accepts too, and it folded one line per site of the
// shard, each at a unique index inside it under the shard's domain
// there.
func FuzzParseResult(f *testing.F) {
	good, want := fuzzResultBytes(f)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add([]byte("{}\n"))
	f.Add(good[:len(good)/2])                   // torn tail mid-line
	f.Add(good[:bytes.IndexByte(good, '\n')/2]) // torn header line
	f.Add(bytes.Replace(good, []byte(`"sha256":"`), []byte(`"sha256":"00`), 1))
	if i := bytes.LastIndexByte(good[:len(good)-1], '\n'); i > 0 {
		f.Add(good[:i+1]) // the trailer dropped: never sealed
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)

	// A fuzz process runs its inputs one at a time, so they share a path.
	path := filepath.Join(f.TempDir(), "shard-0-of-2.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var folded []crawler.SiteResult
		_, err := crawler.ReadSealed(path, want, fuzzShard, func(r crawler.SiteResult) { folded = append(folded, r) })
		_, hashErr := crawler.ReadSealed(path, want, fuzzShard, nil)
		if err != nil {
			return
		}
		if hashErr != nil {
			t.Fatalf("the decoding read accepted what the hashing read refuses: %v", hashErr)
		}
		if len(folded) != len(fuzzShard) {
			t.Fatalf("accepted %d sites, the shard has %d", len(folded), len(fuzzShard))
		}
		seen := map[int]bool{}
		for _, r := range folded {
			if r.Index < 0 || r.Index >= len(fuzzShard) || seen[r.Index] || r.Crawl.Domain != fuzzShard[r.Index].Domain {
				t.Fatalf("accepted site %q at index %d", r.Crawl.Domain, r.Index)
			}
			seen[r.Index] = true
		}
	})
}
