package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/httpmodel"
)

// poisonDetector panics on one site and defers to the real detector
// everywhere else — the "one malformed capture kills the study" bug the
// detect-stage quarantine exists to contain.
type poisonDetector struct {
	real   Detector
	victim string
}

func (p poisonDetector) DetectSite(site string, records []httpmodel.Record) []core.Leak {
	if site == p.victim {
		panic("poison capture: " + site)
	}
	return p.real.DetectSite(site, records)
}

// TestDetectorPanicQuarantinesSite: a detector that panics on one site
// must not kill the run — the site is marked crashed and quarantined,
// every other site's leaks survive, and the success denominator
// excludes the lost site.
func TestDetectorPanicQuarantinesSite(t *testing.T) {
	eco, profile, det := fixture(t, 29)

	base, err := Run(context.Background(), eco, profile, det, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Leaks) == 0 {
		t.Fatal("baseline run found no leaks (test premise)")
	}
	victim := base.Leaks[0].Site
	var wantLeaks []core.Leak
	for _, l := range base.Leaks {
		if l.Site != victim {
			wantLeaks = append(wantLeaks, l)
		}
	}

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{}},
		{"parallel", Options{Options: crawler.Options{Workers: 4}, DetectWorkers: 3}},
	} {
		q, err := crawler.NewQuarantine(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts := tc.opts
		opts.Quarantine = q
		res, err := Run(context.Background(), eco, profile, poisonDetector{real: det, victim: victim}, opts)
		if err != nil {
			t.Fatalf("%s: a panicking detector killed the run: %v", tc.name, err)
		}
		if !reflect.DeepEqual(res.Leaks, wantLeaks) {
			t.Errorf("%s: leaks = %d, want %d (baseline minus the poison site)", tc.name, len(res.Leaks), len(wantLeaks))
		}
		crashed := 0
		for i := range res.Dataset.Crawls {
			c := &res.Dataset.Crawls[i]
			if c.Domain == victim {
				if c.Outcome != crawler.OutcomeCrashed {
					t.Errorf("%s: poison site outcome = %s, want crashed", tc.name, c.Outcome)
				}
			}
			if c.Outcome == crawler.OutcomeCrashed {
				crashed++
			}
		}
		if crashed != 1 {
			t.Errorf("%s: %d crashed sites, want 1", tc.name, crashed)
		}
		if res.Stats.Successes != base.Stats.Successes-1 {
			t.Errorf("%s: successes = %d, want %d (poison site must leave the denominator)", tc.name, res.Stats.Successes, base.Stats.Successes-1)
		}

		manifest, err := os.ReadFile(q.ManifestPath())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := bytes.Count(manifest, []byte("\n")); n != 1 {
			t.Fatalf("%s: manifest holds %d bundles, want 1", tc.name, n)
		}
		var b crawler.CrashBundle
		if err := json.Unmarshal(manifest, &b); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if b.Stage != crawler.StageDetect || b.Domain != victim || b.Outcome != crawler.OutcomeCrashed {
			t.Errorf("%s: bundle = %+v, want detect-stage crash of %s", tc.name, b, victim)
		}
		if b.Panic == "" || b.Stack == "" {
			t.Errorf("%s: bundle missing diagnostics: panic=%q stack %d bytes", tc.name, b.Panic, len(b.Stack))
		}
	}
}

// TestDetectCrashNotRerunOnResume: a site whose detection panicked is
// checkpointed after detection with its crashed outcome, so a resume
// folds it from the file instead of running the poison again — the
// quarantine manifest keeps its one bundle, and the resumed run writes
// the first run's leaks and dataset.
func TestDetectCrashNotRerunOnResume(t *testing.T) {
	eco, profile, det := fixture(t, 29)
	base, err := Run(context.Background(), eco, profile, det, Options{})
	if err != nil {
		t.Fatal(err)
	}
	poison := poisonDetector{real: det, victim: base.Leaks[0].Site}
	q, err := crawler.NewQuarantine(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	opts.Quarantine = q
	opts.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.jsonl")
	first, err := Run(context.Background(), eco, profile, poison, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	resumed, err := Run(context.Background(), eco, profile, poison, opts)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(q.ManifestPath())
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(manifest, []byte("\n")); n != 1 {
		t.Errorf("manifest holds %d bundles after the resume, want 1", n)
	}
	if !reflect.DeepEqual(resumed.Leaks, first.Leaks) || !reflect.DeepEqual(resumed.Dataset, first.Dataset) {
		t.Error("resumed run differs from the first")
	}
}

// TestRunCancelledContext: a pre-cancelled context returns
// context.Canceled without producing a result.
func TestRunCancelledContext(t *testing.T) {
	eco, profile, det := fixture(t, 29)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, eco, profile, det, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run still returned a result")
	}
}
