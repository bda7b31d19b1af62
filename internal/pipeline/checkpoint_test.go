package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/obs"
	"piileak/internal/pii"
	"piileak/internal/site"
)

// cancelAt is a site source that cancels its run when the crawl takes
// site n, as a Ctrl-C mid-run does.
type cancelAt struct {
	site.Source
	n      int
	cancel context.CancelFunc
}

func (s cancelAt) At(i int) *site.Site {
	if i == s.n {
		s.cancel()
	}
	return s.Source.At(i)
}

func leakBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := json.Marshal(res.Leaks)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func datasetBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Dataset.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCancelledRunResumesByteIdentical: a checkpointed run cancelled
// mid-run keeps every site a worker had crawled before the cancel, and
// a resume — serial, or with 4 workers appending while they run —
// writes the uninterrupted run's leak and dataset bytes. The resumed
// sites still count: both stages' progress reaches the total, and so
// do the crawl and detect counters.
func TestCancelledRunResumesByteIdentical(t *testing.T) {
	eco, profile, det := fixture(t, 29)
	ref, err := Run(context.Background(), eco, profile, det, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := len(eco.Sites)

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{}},
		{"parallel", Options{Options: crawler.Options{Workers: 4}, DetectWorkers: 3}},
	} {
		opts := tc.opts
		opts.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.jsonl")
		ctx, cancel := context.WithCancel(context.Background())
		cut := opts
		cut.Source = cancelAt{eco.Universe(), 20, cancel}
		if _, err := Run(ctx, eco, profile, det, cut); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled run returned %v, want context.Canceled", tc.name, err)
		}

		var loaded int
		done := map[string]int{}
		o := obs.NewRun()
		opts.Resume = true
		opts.OnResume = func(rs crawler.ResumeSummary) { loaded = rs.Completed }
		opts.Progress = func(ev Event) { done[ev.Stage] = ev.Done }
		opts.Obs = o
		res, err := Run(context.Background(), eco, profile, det, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if loaded == 0 || loaded >= total {
			t.Errorf("%s: resume loaded %d of %d sites, want some but not all", tc.name, loaded, total)
		}
		if got, want := leakBytes(t, res), leakBytes(t, ref); !bytes.Equal(got, want) {
			t.Errorf("%s: resumed leaks differ from the uninterrupted run's", tc.name)
		}
		if got, want := datasetBytes(t, res), datasetBytes(t, ref); !bytes.Equal(got, want) {
			t.Errorf("%s: resumed dataset differs from the uninterrupted run's", tc.name)
		}
		if res.Stats.Successes != ref.Stats.Successes || res.TotalRecords != ref.TotalRecords {
			t.Errorf("%s: %d successes and %d records, want %d and %d", tc.name, res.Stats.Successes, res.TotalRecords, ref.Stats.Successes, ref.TotalRecords)
		}
		if done["crawl"] != total || done["detect"] != total {
			t.Errorf("%s: progress reached crawl %d, detect %d, want %d each", tc.name, done["crawl"], done["detect"], total)
		}
		c := o.Snapshot().Counters
		if c[obs.MetricCrawlSites] != int64(total) || c[obs.MetricDetectSites] != int64(total) || c[obs.MetricCheckpointResumed] != int64(loaded) {
			t.Errorf("%s: counters crawl %d, detect %d, resumed %d, want %d, %d and %d", tc.name,
				c[obs.MetricCrawlSites], c[obs.MetricDetectSites], c[obs.MetricCheckpointResumed], total, total, loaded)
		}
	}
}

// TestCheckpointRefusesOtherDetector: a checkpoint's lines are what its
// writer's stage produced, so a resume refuses a dataset crawl's
// checkpoint as a study, a study's as a dataset crawl, and a depth-2
// study's under a depth-1 candidate set — each with a re-run error.
func TestCheckpointRefusesOtherDetector(t *testing.T) {
	eco, profile, det := fixture(t, 29)
	depth1, err := detect.NewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{Candidates: pii.CandidateConfig{MaxDepth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	half := site.Slice(eco.Sites[:len(eco.Sites)/2])

	dataset := filepath.Join(dir, "dataset.ckpt")
	if _, err := crawler.Run(context.Background(), eco, profile, crawler.Options{Source: half, CheckpointPath: dataset}); err != nil {
		t.Fatal(err)
	}
	study := filepath.Join(dir, "study.ckpt")
	opts := Options{}
	opts.Source, opts.CheckpointPath = half, study
	if _, err := Run(context.Background(), eco, profile, det, opts); err != nil {
		t.Fatal(err)
	}

	resume := func(path string, det Detector) error {
		opts := Options{}
		opts.CheckpointPath, opts.Resume = path, true
		if det == nil {
			_, err := crawler.Run(context.Background(), eco, profile, opts.Options)
			return err
		}
		_, err := Run(context.Background(), eco, profile, det, opts)
		return err
	}
	for _, tc := range []struct {
		name string
		path string
		det  Detector // nil resumes as a dataset crawl
	}{
		{"dataset resumed as a study", dataset, det},
		{"study resumed as a dataset", study, nil},
		{"depth 2 resumed at depth 1", study, depth1},
	} {
		if err := resume(tc.path, tc.det); err == nil || !strings.Contains(err.Error(), "re-run") {
			t.Errorf("%s: resume err = %v, want a header mismatch that says to re-run", tc.name, err)
		}
	}
	if err := resume(study, det); err != nil {
		t.Errorf("matching resume failed: %v", err)
	}
}
