package piileak

import (
	"bytes"
	"context"
	"testing"
	"time"

	"piileak/internal/crawler"
	"piileak/internal/faultsim"
	"piileak/internal/obs"
	"piileak/internal/site"
)

// TestRunOptionDefaults pins every RunOption's default: a bare Run(ctx)
// executes under the zero option set, and each option must move exactly
// its own knob. WithStream is the one option that moves none: it is
// nil, which Run skips.
func TestRunOptionDefaults(t *testing.T) {
	o := obs.NewRun()
	q, err := crawler.NewQuarantine(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		opt        RunOption
		def, after any
		get        func(runConfig) any
	}{
		{"WithWorkers/crawl", WithWorkers(5, 6), 0, 5,
			func(rc runConfig) any { return rc.opts.Workers }},
		{"WithWorkers/detect", WithWorkers(5, 6), 0, 6,
			func(rc runConfig) any { return rc.opts.DetectWorkers }},
		{"WithCheckpoint", WithCheckpoint("ck.jsonl"), "", "ck.jsonl",
			func(rc runConfig) any { return rc.opts.CheckpointPath }},
		{"WithResume", WithResume(nil), false, true,
			func(rc runConfig) any { return rc.opts.Resume }},
		{"WithObserver", WithObserver(o), (*obs.Run)(nil), o,
			func(rc runConfig) any { return rc.opts.Obs }},
		{"WithSiteTimeout", WithSiteTimeout(time.Minute), time.Duration(0), time.Minute,
			func(rc runConfig) any { return rc.opts.SiteTimeout }},
		{"WithQuarantine", WithQuarantine(q), (*crawler.Quarantine)(nil), q,
			func(rc runConfig) any { return rc.opts.Quarantine }},
		{"WithSource", WithSource(site.Slice(nil)), false, true,
			func(rc runConfig) any { return rc.opts.Source != nil }},
		{"WithMaxAttempts", WithMaxAttempts(7), 0, 7,
			func(rc runConfig) any { return rc.opts.MaxAttempts }},
		{"WithProgress", WithProgress(func(Event) {}), false, true,
			func(rc runConfig) any { return rc.opts.Progress != nil }},
	} {
		var rc runConfig
		if got := tc.get(rc); got != tc.def {
			t.Errorf("%s: default = %v, want %v", tc.name, got, tc.def)
		}
		tc.opt(&rc)
		if got := tc.get(rc); got != tc.after {
			t.Errorf("%s: after option = %v, want %v", tc.name, got, tc.after)
		}
	}

	if WithStream() != nil {
		t.Error("WithStream is not the nil option")
	}

	// The remaining defaults a bare Run(ctx) executes under.
	var rc runConfig
	if rc.opts.OnResume != nil || rc.opts.Resume {
		t.Error("default run resumes")
	}
	if rc.opts.Obs != nil {
		t.Error("default run carries an observer")
	}
}

// TestTelemetryIsSideChannel pins the observability layer's core
// guarantee from two directions: attaching an observer never moves an
// output byte (fault-free and under fault injection), and five
// identically-seeded parallel observed runs export byte-identical
// metrics and trace files — enough runs for a scheduler-dependent value
// in the registry to show.
func TestTelemetryIsSideChannel(t *testing.T) {
	ctx := context.Background()
	for _, faulty := range []bool{false, true} {
		name := "fault-free"
		if faulty {
			name = "faulty"
		}
		t.Run(name, func(t *testing.T) {
			newStudy := func() *Study {
				cfg := SmallConfig(23)
				if faulty {
					cfg.Ecosystem.Faults = &faultsim.Config{Seed: 23, Rate: 0.3}
				}
				s, err := NewStudy(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			plain := newStudy()
			if err := plain.Run(ctx); err != nil {
				t.Fatal(err)
			}
			want := leaksJSON(t, plain)
			var observers []*obs.Run
			var obs1 *Study
			for i := 0; i < 5; i++ {
				o := obs.NewRun()
				s := newStudy()
				if err := s.Run(ctx, WithObserver(o), WithWorkers(3, 2)); err != nil {
					t.Fatal(err)
				}
				if got := leaksJSON(t, s); !bytes.Equal(want, got) {
					t.Errorf("observed-%d: observer moved the leak bytes (%d vs %d)", i+1, len(got), len(want))
				}
				observers = append(observers, o)
				if i == 0 {
					obs1 = s
				}
			}

			var m1, t1 bytes.Buffer
			if err := observers[0].WriteMetrics(&m1); err != nil {
				t.Fatal(err)
			}
			if err := observers[0].WriteTrace(&t1); err != nil {
				t.Fatal(err)
			}
			for i, o := range observers[1:] {
				var m, tr bytes.Buffer
				if err := o.WriteMetrics(&m); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(m1.Bytes(), m.Bytes()) {
					t.Errorf("observed-%d exported different metrics bytes than observed-1", i+2)
				}
				if err := o.WriteTrace(&tr); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(t1.Bytes(), tr.Bytes()) {
					t.Errorf("observed-%d exported different trace bytes than observed-1", i+2)
				}
			}

			// The manifest's pipeline fold must agree with the study's own
			// counters — telemetry mirrors the run, it does not invent one.
			man := observers[0].Manifest()
			if man.Pipeline.Leaks != int64(len(obs1.Leaks)) {
				t.Errorf("manifest leaks = %d, study detected %d", man.Pipeline.Leaks, len(obs1.Leaks))
			}
			if man.Pipeline.CrawledSites != int64(len(obs1.Eco.Sites)) {
				t.Errorf("manifest crawled sites = %d, ecosystem has %d", man.Pipeline.CrawledSites, len(obs1.Eco.Sites))
			}
			if man.Run.EcoSeed != 23 {
				t.Errorf("manifest run info = %+v, want seed 23", man.Run)
			}
			if faulty {
				if man.Run.FaultSeed != 23 {
					t.Errorf("manifest fault seed = %d, want 23", man.Run.FaultSeed)
				}
				total := int64(0)
				for _, n := range man.Faults {
					total += n
				}
				if total == 0 {
					t.Error("faulty run injected no faults into the manifest")
				}
				if man.Resilience.Attempts == 0 {
					t.Error("faulty run recorded no fetch attempts")
				}
			}
		})
	}
}
