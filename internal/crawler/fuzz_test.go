package crawler

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// FuzzReadJSON hammers the dataset decoders with malformed input. Both
// the plain and the gzip path must fail cleanly — no panic, no non-nil
// dataset alongside an error — whatever the bytes look like. The seed
// corpus covers the two regressions that motivated the hardening:
// invalid JSON and a gzip stream truncated mid-flush.
func FuzzReadJSON(f *testing.F) {
	valid := []byte(`{"browser":"firefox 88","crawls":[{"domain":"a.example","rank":1,"outcome":"success"}]}`)
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	w.Write(valid)
	w.Close()

	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // kill mid-record: JSON truncated between syncs
	f.Add([]byte("{broken"))
	f.Add([]byte(`{"crawls":[{"domain":"a.com"},{"domain":"a.com"}]}`))
	f.Add(gz.Bytes())
	f.Add(gz.Bytes()[:gz.Len()/2]) // truncated gzip
	f.Add(gz.Bytes()[:12])         // gzip header only
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadJSON(bytes.NewReader(data))
		if (ds == nil) == (err == nil) {
			t.Fatalf("ReadJSON returned ds=%v err=%v", ds, err)
		}

		dir := t.TempDir()
		for _, name := range []string{"ds.json", "ds.json.gz"} {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			ds, err := ReadJSONFile(path)
			if (ds == nil) == (err == nil) {
				t.Fatalf("ReadJSONFile(%s) returned ds=%v err=%v", name, ds, err)
			}
		}
	})
}

// FuzzOpenCheckpoint resumes a checkpoint made of a header line and
// arbitrary bytes over a four-site source — the wanted run's header, or
// with foreign set another run's. A foreign header is refused and leaves
// the file untouched. Otherwise the open never panics; it errors, file
// untouched, exactly when a leading line that decodes with a domain has
// an index outside the source, repeats an index or names another domain
// than the source's site there; it loads those leading lines, each
// folded once and skipped by Unfinished, and counts the non-blank lines
// after them as torn; after Close the file holds exactly the bytes
// through the last of them, ending in a newline; and a second open
// loads as many and finds no torn lines.
func FuzzOpenCheckpoint(f *testing.F) {
	eco := &webgen.Ecosystem{Config: webgen.Config{Seed: 7, ShoppingSites: 60}}
	other := &webgen.Ecosystem{Config: webgen.Config{Seed: 8, ShoppingSites: 60}}
	profile := browser.Firefox88()
	src := site.Slice{{Domain: "a.example"}, {Domain: "b.example"}, {Domain: "c.example"}, {Domain: "d.example"}}

	// A fuzz process runs its inputs one at a time, so they share a path.
	path := filepath.Join(f.TempDir(), "crawl.ckpt")
	f.Fuzz(func(t *testing.T, foreign bool, body []byte) {
		hdrEco := eco
		if foreign {
			hdrEco = other
		}
		header, err := json.Marshal(NewHeader(hdrEco, profile, Options{}, ""))
		if err != nil {
			t.Fatal(err)
		}
		file := append(append(header, '\n'), body...)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		unchanged := func() {
			t.Helper()
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, file) {
				t.Fatalf("a refused open changed the file (err %v)", err)
			}
		}

		// The oracle: the leading lines that decode with a domain,
		// blank lines skipped, where the last of them ends, the
		// non-blank lines from the first that does not decode on, and
		// the refusal a bad index or domain among the leading lines
		// earns.
		keep := len(header) + 1
		done, torn, refuse := 0, 0, ""
		seen := map[int]bool{}
		off := keep
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			off += len(line)
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var r SiteResult
			if torn > 0 || json.Unmarshal(line, &r) != nil || r.Crawl.Domain == "" {
				torn++
				continue
			}
			switch {
			case r.Index < 0 || r.Index >= len(src):
				refuse = "outside"
			case seen[r.Index]:
				refuse = "duplicate"
			case src[r.Index].Domain != r.Crawl.Domain:
				refuse = "the run's site"
			}
			if refuse != "" {
				break
			}
			seen[r.Index] = true
			done, keep = done+1, off
		}

		folded := map[int]int{}
		opts := Options{CheckpointPath: path, Resume: true, Source: src}
		c, err := OpenCheckpoint(eco, profile, opts, "", func(r SiteResult) { folded[r.Index]++ })
		switch {
		case foreign:
			if err == nil || !strings.Contains(err.Error(), "resume requested") {
				t.Fatalf("foreign header: err = %v, want a header mismatch", err)
			}
			unchanged()
			return
		case refuse != "":
			if err == nil || !strings.Contains(err.Error(), refuse) {
				t.Fatalf("bad line: err = %v, want one containing %q", err, refuse)
			}
			unchanged()
			return
		case err != nil:
			t.Fatal(err)
		}
		if c.loaded != done || c.torn != torn {
			t.Errorf("loaded %d sites and %d torn lines, want %d and %d", c.loaded, c.torn, done, torn)
		}
		rest := c.Unfinished(src)
		for i := range src {
			if seen[i] != (folded[i] == 1) || len(folded) != len(seen) {
				t.Errorf("site %d: loaded %v, folded %d times", i, seen[i], folded[i])
			}
			if seen[i] != (rest.At(i) == nil) {
				t.Errorf("site %d: loaded %v, but Unfinished returns %v", i, seen[i], rest.At(i))
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		want := file[:keep:keep]
		if want[len(want)-1] != '\n' {
			want = append(want, '\n')
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file after resume:\n got %q\nwant %q", got, want)
		}

		c, err = OpenCheckpoint(eco, profile, opts, "", func(SiteResult) {})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if c.loaded != done || c.torn != 0 {
			t.Errorf("reopen: loaded %d sites and %d torn lines, want %d and 0", c.loaded, c.torn, done)
		}
	})
}

// FuzzSiteLine pins the hand-written study-neutral line codec to
// encoding/json in both directions. Whatever line bytes the hand reader
// accepts, json.Unmarshal accepts into an equal SiteResult. A site built
// from the fuzzed scalars (flags bit 0 sets EmailConfirm, bit 1
// BotDetection) is taken by the hand writer exactly when its strings
// are plain; its bytes are then json.Marshal's, and they decode back to
// the site, through the hand reader whenever its integers are
// non-negative.
func FuzzSiteLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte, index int, domain string, rank int, outcome, obstacle string, flags uint8, attempts, retries, failed, records int) {
		var hand SiteResult
		if parseNeutralLine(line, &hand) {
			var want SiteResult
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("hand reader accepts %q, encoding/json refuses it: %v", line, err)
			}
			if !reflect.DeepEqual(hand, want) {
				t.Fatalf("%q:\nhand reader %+v\nencoding/json %+v", line, hand, want)
			}
		}

		r := SiteResult{Index: index, Records: records, Crawl: SiteCrawl{
			Domain: domain, Rank: rank, Outcome: Outcome(outcome), Obstacle: site.Obstacle(obstacle),
			EmailConfirm: flags&1 != 0, BotDetection: flags&2 != 0,
			Attempts: attempts, Retries: retries, FailedFetches: failed,
		}}
		got, ok := appendNeutralLine(nil, &r)
		if ok != (plain(domain) && plain(outcome) && plain(obstacle)) {
			t.Fatalf("hand writer takes %+v: %v", r, ok)
		}
		if !ok {
			return
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("hand writer:\n got %s\nwant %s", got, want)
		}
		var back SiteResult
		nonNeg := index >= 0 && rank >= 0 && attempts >= 0 && retries >= 0 && failed >= 0 && records >= 0
		if parseNeutralLine(got, &back) != nonNeg || !decodeSiteLine(got, &back) || !reflect.DeepEqual(back, r) {
			t.Fatalf("%s decodes to %+v, want %+v, by hand: %v", got, back, r, nonNeg)
		}
	})
}
