package crawler

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"piileak/internal/browser"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	// Crawl half the sites with a checkpoint (simulating a killed run),
	// then resume over the full set: the merged dataset must be
	// byte-identical to an uninterrupted crawl — under faults, where
	// per-site determinism actually earns its keep.
	eco := faultyEcosystem(t, 53, 0.3)
	full, err := Run(context.Background(), eco, browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, full)

	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	half := eco.Sites[:len(eco.Sites)/2]
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(half), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}

	resumed, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, datasetBytes(t, resumed)) {
		t.Error("resumed dataset differs from uninterrupted crawl")
	}
}

func TestCheckpointResumeToleratesTornTail(t *testing.T) {
	eco := faultyEcosystem(t, 53, 0.3)
	full, err := Run(context.Background(), eco, browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, full)

	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:3]), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-append: a truncated JSON line at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crawl":{"domain":"torn.example","ou`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, datasetBytes(t, resumed)) {
		t.Error("resume after torn tail differs from uninterrupted crawl")
	}
}

func TestCheckpointRefusesForeignRun(t *testing.T) {
	eco := faultyEcosystem(t, 53, 0.3)
	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:2]), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}

	// Different seed: the sites are a different population.
	other := faultyEcosystem(t, 54, 0.3)
	if _, err := Run(context.Background(), other, browser.Firefox88(), Options{CheckpointPath: path, Resume: true}); err == nil {
		t.Error("resume accepted a checkpoint from a different seed")
	}
	// Different browser: the traffic is incomparable.
	if _, err := Run(context.Background(), eco, browser.Chrome93(), Options{CheckpointPath: path, Resume: true}); err == nil {
		t.Error("resume accepted a checkpoint from a different browser")
	}
	// Same run resumes fine.
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path, Resume: true}); err != nil {
		t.Errorf("matching resume failed: %v", err)
	}
}

// TestCheckpointRefusesOtherFaultRate: a checkpoint written under 0.2
// faults and resumed without faults — `piicrawl -small -seed 7 -faults
// 0.2 -checkpoint F`, then `-resume` without -faults — is refused, as is
// the reverse: reusing its sites would write the other run's dataset.
func TestCheckpointRefusesOtherFaultRate(t *testing.T) {
	faulted := faultyEcosystem(t, 7, 0.2)
	clean := webgen.MustGenerate(webgen.SmallConfig(7))
	for _, tc := range []struct {
		name          string
		write, resume *webgen.Ecosystem
	}{
		{"faulted-then-clean", faulted, clean},
		{"clean-then-faulted", clean, faulted},
		{"0.2-then-0.5", faulted, faultyEcosystem(t, 7, 0.5)},
	} {
		path := filepath.Join(t.TempDir(), "crawl.ckpt")
		if _, err := Run(context.Background(), tc.write, browser.Firefox88(), Options{Source: site.Slice(tc.write.Sites[:3]), CheckpointPath: path}); err != nil {
			t.Fatal(err)
		}
		_, err := Run(context.Background(), tc.resume, browser.Firefox88(), Options{CheckpointPath: path, Resume: true})
		if err == nil || !strings.Contains(err.Error(), "resume requested") {
			t.Errorf("%s: resume err = %v, want a header mismatch", tc.name, err)
		}
	}
}

// TestCheckpointRefusesOtherRetryPolicy: a faulted checkpoint written
// at one attempt per fetch — `-faults 0.2 -retries 1 -checkpoint F` —
// and resumed at the default retries is refused, and so is a resume
// under another site timeout; the same settings, however spelled,
// resume: one attempt as one, and the default budget as 0 or 4.
func TestCheckpointRefusesOtherRetryPolicy(t *testing.T) {
	eco := faultyEcosystem(t, 7, 0.2)
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:3]), CheckpointPath: path, MaxAttempts: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default-retries", Options{}},
		{"site-timeout", Options{MaxAttempts: 1, SiteTimeout: 25 * time.Second}},
	} {
		tc.opts.CheckpointPath, tc.opts.Resume = path, true
		_, err := Run(context.Background(), eco, browser.Firefox88(), tc.opts)
		if err == nil || !strings.Contains(err.Error(), "resume requested") {
			t.Errorf("%s: resume err = %v, want a header mismatch", tc.name, err)
		}
	}
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:3]), CheckpointPath: path, Resume: true, MaxAttempts: 1}); err != nil {
		t.Errorf("matching resume failed: %v", err)
	}
	spelled := filepath.Join(dir, "default.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:3]), CheckpointPath: spelled}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:3]), CheckpointPath: spelled, Resume: true, MaxAttempts: 4}); err != nil {
		t.Errorf("resume at 4 attempts of a checkpoint written at the default (0): %v", err)
	}
}

func TestCheckpointRefusesDuplicateEntries(t *testing.T) {
	eco := faultyEcosystem(t, 53, 0.3)
	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:2]), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	if err := os.WriteFile(path, append(data, []byte(last+"\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path, Resume: true}); err == nil {
		t.Error("resume accepted a checkpoint with a duplicated site")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("error %q does not name the duplicate", err)
	}
}

func TestCheckpointParallelResumeMatchesSerial(t *testing.T) {
	eco := faultyEcosystem(t, 59, 0.3)
	full, err := Run(context.Background(), eco, browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, full)

	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{
		Source: site.Slice(eco.Sites[:len(eco.Sites)/3]), Workers: 4, CheckpointPath: path,
	}); err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path, Resume: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, datasetBytes(t, resumed)) {
		t.Error("parallel resume differs from uninterrupted serial crawl")
	}
}

func TestCheckpointFreshRunTruncatesStaleFile(t *testing.T) {
	// Without -resume, an existing checkpoint is overwritten, not
	// appended to: a second fresh run must not see the first's entries.
	eco := faultyEcosystem(t, 53, 0.3)
	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:4]), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:1]), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	ckpt, err := OpenCheckpoint(eco, browser.Firefox88(), Options{CheckpointPath: path, Resume: true}, "", func(SiteResult) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	if ckpt.loaded != 1 {
		t.Errorf("fresh run left %d sites, want 1", ckpt.loaded)
	}
}

// TestCheckpointRefusesOldAndForeignLines: a version-1 checkpoint is
// refused with a re-run error, and so is a line that names another
// domain than the run's site at its index or whose index lies outside
// the run's sites.
func TestCheckpointRefusesOldAndForeignLines(t *testing.T) {
	eco := faultyEcosystem(t, 53, 0.3)
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:3]), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	for _, tc := range []struct {
		name, file, want string
	}{
		{"version 1", `{"version":1,"browser":"Firefox 88","seed":53,"sites":60}` + "\n" +
			`{"crawl":{"domain":"` + eco.Sites[0].Domain + `","rank":1,"outcome":"success"}}` + "\n", "re-run"},
		{"another domain", lines[0] + strings.Replace(lines[2], `"index":1`, `"index":0`, 1), "the run's site 0 is"},
		{"index out of range", lines[0] + strings.Replace(lines[1], `"index":0`, `"index":60`, 1), "outside the run's 60 sites"},
	} {
		p := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-"))
		if err := os.WriteFile(p, []byte(tc.file), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: p, Resume: true})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// sizedEntry returns the i'th of a run of sites whose checkpoint line,
// newline included, is exactly n bytes long.
func sizedEntry(t *testing.T, i, n int) SiteResult {
	t.Helper()
	e := SiteResult{Index: i, Crawl: SiteCrawl{Domain: fmt.Sprintf("s%d.example", i)}}
	line, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	e.Crawl.Domain = strings.Repeat("x", n-len(line)-1) + e.Crawl.Domain
	return e
}

// TestCheckpointSyncsInGroups pins the group-sync schedule through the
// failpoint: an append syncs exactly when checkpointSyncBytes or more
// of lines are unsynced, with "post" after that sync, and Close syncs
// once if and only if lines are still pending.
func TestCheckpointSyncsInGroups(t *testing.T) {
	eco := &webgen.Ecosystem{Config: webgen.Config{Seed: 7, ShoppingSites: 60}}
	for _, tc := range []struct {
		name      string
		size, n   int
		syncAfter []int // appends whose write closes a group
		closeSync bool
	}{
		{"nothing appended", 0, 0, nil, false},
		{"one line short of a group", checkpointSyncBytes/4 - 1, 4, nil, true},
		{"group exactly full", checkpointSyncBytes / 4, 4, []int{4}, false},
		{"line over the threshold", checkpointSyncBytes + 1, 2, []int{1, 2}, false},
		{"groups of five", checkpointSyncBytes/4 - 1, 11, []int{5, 10}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			CheckpointFailpoint = func(event string, appends int) {
				got = append(got, fmt.Sprintf("%s%d", event, appends))
			}
			t.Cleanup(func() { CheckpointFailpoint = nil })

			c, err := OpenCheckpoint(eco, browser.Firefox88(), Options{CheckpointPath: filepath.Join(t.TempDir(), "crawl.ckpt")}, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for i := 1; i <= tc.n; i++ {
				e := sizedEntry(t, i, tc.size)
				if err := c.Append(&e); err != nil {
					t.Fatal(err)
				}
				want = append(want, fmt.Sprintf("pre%d", i), fmt.Sprintf("mid%d", i))
				if slices.Contains(tc.syncAfter, i) {
					want = append(want, fmt.Sprintf("sync%d", i))
				}
				want = append(want, fmt.Sprintf("post%d", i))
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.closeSync {
				want = append(want, fmt.Sprintf("sync%d", tc.n))
			}
			if !slices.Equal(got, want) {
				t.Errorf("failpoint events\n got %v\nwant %v", got, want)
			}
		})
	}
}

// checkpointDigestSmall7 is the SHA-256 of the checkpoint a serial
// crawl of SmallConfig(7) under 0.2 faults writes — the file of
// `piicrawl -small -seed 7 -faults 0.2 -checkpoint F`. It pins the
// on-disk format (checkpointVersion 2): a change to it must bump the
// version, not silently alter the bytes. Version 1 of the same run
// hashed to f416fae3…; decoded, each of its lines carried the same
// crawl, mail and blocked fields as the version-2 line at the same
// position, which adds the index and the record count.
const checkpointDigestSmall7 = "134aceb48dd323672b3406112cd0ff35ca72ba25c0efc345c680ba7532049ede"

func TestCheckpointBytesPinned(t *testing.T) {
	eco := faultyEcosystem(t, 7, 0.2)
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(full)); got != checkpointDigestSmall7 {
		t.Fatalf("checkpoint SHA-256 = %s, want %s", got, checkpointDigestSmall7)
	}

	// A resume repairs the cut in place and appends the remaining sites:
	// the finished file is the uninterrupted run's, byte for byte.
	lines := bytes.SplitAfter(full, []byte("\n"))
	prefix := bytes.Join(lines[:21], nil) // the header and 20 sites
	for _, tc := range []struct {
		name       string
		cut        []byte
		done, torn int
	}{
		{"cut mid-line", append(slices.Clip(prefix), lines[21][:len(lines[21])/2]...), 20, 1},
		{"last line without newline", prefix[:len(prefix)-1], 20, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-"))
			if err := os.WriteFile(path, tc.cut, 0o644); err != nil {
				t.Fatal(err)
			}
			var sum ResumeSummary
			if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{
				CheckpointPath: path, Resume: true, OnResume: func(s ResumeSummary) { sum = s },
			}); err != nil {
				t.Fatal(err)
			}
			if sum.Completed != tc.done || sum.TornRecords != tc.torn {
				t.Errorf("resume loaded %d sites and dropped %d torn, want %d and %d", sum.Completed, sum.TornRecords, tc.done, tc.torn)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, full) {
				t.Errorf("resumed checkpoint (%d bytes) differs from the uninterrupted one (%d bytes)", len(got), len(full))
			}
		})
	}
}
