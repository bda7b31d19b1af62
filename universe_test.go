package piileak

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"piileak/internal/site"
)

// TestLazyMatchesEagerByteIdentical is the tentpole pin at the study
// level: with UniverseSize zero the lazy default population (the
// ecosystem's universe) must reproduce the eager []*site.Site path byte
// for byte — leak JSON and Tables 1, 2 and 4 — at both the paper-exact
// default config and the small config. This is what guarantees the
// SiteSource redesign moved no calibrated output.
func TestLazyMatchesEagerByteIdentical(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"small", SmallConfig(29)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eager, err := NewStudy(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eager.Run(ctx, WithWorkers(4, 4), WithSource(site.Slice(eager.Eco.Sites))); err != nil {
				t.Fatal(err)
			}
			lazy, err := NewStudy(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := lazy.Run(ctx, WithWorkers(4, 4)); err != nil {
				t.Fatal(err)
			}

			if want, got := leaksJSON(t, eager), leaksJSON(t, lazy); !bytes.Equal(want, got) {
				t.Errorf("lazy leak JSON diverges from eager (%d vs %d bytes)", len(got), len(want))
			}
			if got, want := lazy.Analysis.Headline(), eager.Analysis.Headline(); got != want {
				t.Errorf("headline diverges:\n%+v\n%+v", got, want)
			}
			if !reflect.DeepEqual(lazy.Analysis.ByMethod(), eager.Analysis.ByMethod()) {
				t.Error("Table 1a diverges")
			}
			if !reflect.DeepEqual(lazy.Analysis.ByEncoding(), eager.Analysis.ByEncoding()) {
				t.Error("Table 1b diverges")
			}
			wantT2, err := eager.Tracking()
			if err != nil {
				t.Fatal(err)
			}
			gotT2, err := lazy.Tracking()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotT2, wantT2) {
				t.Error("Table 2 diverges")
			}
			wantT4, err := eager.EvaluateBlocklists()
			if err != nil {
				t.Fatal(err)
			}
			gotT4, err := lazy.EvaluateBlocklists()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotT4, wantT4) {
				t.Error("Table 4 diverges")
			}
		})
	}
}

// TestUniverseTailIsStudyNeutral: extending the universe adds crawled
// sites but moves no calibrated number — the leak bytes, sender set and
// every leak-derived table stay identical to the core-only run, because
// tail sites never leak and never mail the persona.
func TestUniverseTailIsStudyNeutral(t *testing.T) {
	ctx := context.Background()
	core, err := NewStudy(SmallConfig(29))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Run(ctx, WithWorkers(4, 4)); err != nil {
		t.Fatal(err)
	}
	cfg := SmallConfig(29)
	cfg.Ecosystem.UniverseSize = 5000
	big, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Run(ctx, WithWorkers(4, 4)); err != nil {
		t.Fatal(err)
	}
	if want, got := leaksJSON(t, core), leaksJSON(t, big); !bytes.Equal(want, got) {
		t.Errorf("extended universe moved the leak bytes (%d vs %d)", len(got), len(want))
	}
	if got, want := big.Analysis.Headline().Senders, core.Analysis.Headline().Senders; got != want {
		t.Errorf("extended universe moved the sender count: %d vs %d", got, want)
	}
	if got := len(big.Dataset.Crawls); got != 5000 {
		t.Errorf("extended run crawled %d sites, want 5000", got)
	}
}

// TestUniverseBelowCoreRefused: a universe smaller than the study core
// cannot be set — the core is the calibrated study population, and
// scaling never truncates it.
func TestUniverseBelowCoreRefused(t *testing.T) {
	cfg := SmallConfig(29)
	cfg.Ecosystem.UniverseSize = 5
	if _, err := NewStudy(cfg); err == nil {
		t.Error("NewStudy accepted a universe below the study core")
	}
}

// TestRecycledRecordsMatchSerial pins the record slices the workers
// hand back to their browsers: over a 5k-site universe, a run on 2
// workers — each recycling a site's records once it has scanned them,
// while the other appends its next site into a recycled slice — writes
// the serial run's leak bytes, Tables 1, 2 and 4 and thin dataset.
// Under -race (CI runs it ten times in the crawl loop race lane) a
// browser writing a slice that a worker still scans is a reported
// race.
func TestRecycledRecordsMatchSerial(t *testing.T) {
	cfg := SmallConfig(29)
	cfg.Ecosystem.UniverseSize = 5000
	names := []string{"leak JSON", "thin dataset", "headline", "Table 1a", "Table 1b", "Table 2", "Table 4"}
	run := func(crawlWorkers, detectWorkers int) []any {
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background(), WithWorkers(crawlWorkers, detectWorkers)); err != nil {
			t.Fatal(err)
		}
		var ds bytes.Buffer
		if err := s.Dataset.WriteJSON(&ds); err != nil {
			t.Fatal(err)
		}
		t2, err := s.Tracking()
		if err != nil {
			t.Fatal(err)
		}
		t4, err := s.EvaluateBlocklists()
		if err != nil {
			t.Fatal(err)
		}
		return []any{leaksJSON(t, s), ds.Bytes(), s.Analysis.Headline(), s.Analysis.ByMethod(), s.Analysis.ByEncoding(), t2, t4}
	}
	serial, parallel := run(1, 1), run(2, 2)
	for i, name := range names {
		if !reflect.DeepEqual(parallel[i], serial[i]) {
			t.Errorf("%s diverges from the serial run", name)
		}
	}
}
