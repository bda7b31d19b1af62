package crawler

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/site"
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
	ckpt, err := OpenCheckpoint(path, eco, browser.Firefox88(), true, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	if ckpt.Done() != 1 {
		t.Errorf("fresh run left %d entries, want 1", ckpt.Done())
	}
}
