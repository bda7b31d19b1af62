package crawler

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"piileak/internal/browser"
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
// arbitrary bytes — the wanted run's header, or with foreign set another
// run's. A foreign header is refused and leaves the file untouched.
// Otherwise the open never panics; it errors exactly when the intact
// prefix repeats a domain; Done() counts the leading lines that decode
// with a domain, each handed out once by lookup, and TornRecords() the
// non-blank lines after them; after Close the file holds exactly the
// bytes through the last of them, ending in a newline; and a second
// open reports the same Done() and no torn lines.
func FuzzOpenCheckpoint(f *testing.F) {
	eco := &webgen.Ecosystem{Config: webgen.Config{Seed: 7, ShoppingSites: 60}}
	other := &webgen.Ecosystem{Config: webgen.Config{Seed: 8, ShoppingSites: 60}}
	profile := browser.Firefox88()

	f.Fuzz(func(t *testing.T, foreign bool, body []byte) {
		hdrEco := eco
		if foreign {
			hdrEco = other
		}
		header, err := json.Marshal(headerFor(hdrEco, profile, Options{}))
		if err != nil {
			t.Fatal(err)
		}
		file := append(append(header, '\n'), body...)
		path := filepath.Join(t.TempDir(), "crawl.ckpt")
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
		// blank lines skipped, where the last of them ends, and the
		// non-blank lines from the first that does not decode on.
		keep := len(header) + 1
		done, torn, dup := 0, 0, false
		seen := map[string]bool{}
		off := keep
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			off += len(line)
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var e crawlEntry
			if torn > 0 || json.Unmarshal(line, &e) != nil || e.Crawl.Domain == "" {
				torn++
				continue
			}
			if seen[e.Crawl.Domain] {
				dup = true
				break
			}
			seen[e.Crawl.Domain] = true
			done, keep = done+1, off
		}

		c, err := OpenCheckpoint(eco, profile, Options{CheckpointPath: path, Resume: true})
		switch {
		case foreign:
			if err == nil || !strings.Contains(err.Error(), "resume requested") {
				t.Fatalf("foreign header: err = %v, want a header mismatch", err)
			}
			unchanged()
			return
		case dup:
			if err == nil || !strings.Contains(err.Error(), "duplicate") {
				t.Fatalf("duplicate domain: err = %v, want a duplicate error", err)
			}
			unchanged()
			return
		case err != nil:
			t.Fatal(err)
		}
		if c.Done() != done || c.TornRecords() != torn {
			t.Errorf("Done() = %d, TornRecords() = %d, want %d and %d", c.Done(), c.TornRecords(), done, torn)
		}
		for domain := range seen {
			if _, ok := c.lookup(domain); !ok {
				t.Errorf("loaded site %q not found", domain)
			}
			if _, ok := c.lookup(domain); ok {
				t.Errorf("loaded site %q found again after it was emitted", domain)
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

		c, err = OpenCheckpoint(eco, profile, Options{CheckpointPath: path, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if c.Done() != done || c.TornRecords() != 0 {
			t.Errorf("reopen: Done() = %d, TornRecords() = %d, want %d and 0", c.Done(), c.TornRecords(), done)
		}
	})
}
