package piileak

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/obs"
	"piileak/internal/pipeline"
	"piileak/internal/resilience"
	"piileak/internal/shard"
	"piileak/internal/site"
)

func leaksJSON(t *testing.T, s *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteLeaksJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamModesByteIdentical is the pipeline's hard invariant:
// serial, parallel and checkpoint-resumed runs must produce leak output
// byte-identical to crawl-then-detect over the full dataset, and
// identical Table 1/2/4 numbers — Table 4 evaluated over the full
// dataset's records — regardless of worker counts or completion order.
// Every run carries an active observer — telemetry is a side channel
// and must not move a single output byte.
func TestStreamModesByteIdentical(t *testing.T) {
	const seed = 37
	ctx := context.Background()

	newStudy := func() *Study {
		s, err := NewStudy(SmallConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// The reference: crawl the full dataset, then detect over it.
	ref := newStudy()
	ds, err := crawler.Run(ctx, ref.Eco, ref.Config.Browser, crawler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLeaks, wantT1, wantT2, wantT4 := tortureTables(t, ref.Eco, ds)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", " ")
	if err := enc.Encode(wantLeaks); err != nil {
		t.Fatal(err)
	}

	serial := newStudy()
	if err := serial.Run(ctx, WithObserver(obs.NewRun(nil))); err != nil {
		t.Fatal(err)
	}

	parallel := newStudy()
	if err := parallel.Run(ctx, WithWorkers(4, 4), WithBuffer(2), WithObserver(obs.NewRun(nil))); err != nil {
		t.Fatal(err)
	}

	// Resumed: pre-crawl half the sites into a checkpoint, then run the
	// study with Resume — the checkpointed half is emitted from the
	// file, the rest is crawled live.
	resumed := newStudy()
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	half := resumed.Eco.Sites[:len(resumed.Eco.Sites)/2]
	if _, err := crawler.Run(context.Background(), resumed.Eco, resumed.Config.Browser, crawler.Options{
		Source: site.Slice(half), CheckpointPath: ckpt,
	}); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(ctx, WithWorkers(3, 2),
		WithCheckpoint(ckpt), WithResume(nil), WithObserver(obs.NewRun(nil))); err != nil {
		t.Fatal(err)
	}

	for name, s := range map[string]*Study{
		"serial":   serial,
		"parallel": parallel,
		"resumed":  resumed,
	} {
		if got := leaksJSON(t, s); !bytes.Equal(want.Bytes(), got) {
			t.Errorf("%s: leak JSON diverges from crawl-then-detect (%d vs %d bytes)", name, len(got), want.Len())
		}
		if got, want := s.Analysis.Headline(), wantT1.Headline(); got != want {
			t.Errorf("%s: headline diverges:\n%+v\n%+v", name, got, want)
		}
		if !reflect.DeepEqual(s.Analysis.ByMethod(), wantT1.ByMethod()) {
			t.Errorf("%s: Table 1a diverges", name)
		}
		if !reflect.DeepEqual(s.Analysis.ByEncoding(), wantT1.ByEncoding()) {
			t.Errorf("%s: Table 1b diverges", name)
		}
		cls, err := s.Tracking()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cls, wantT2) {
			t.Errorf("%s: Table 2 diverges", name)
		}
		t4, err := s.EvaluateBlocklists()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(t4, wantT4) {
			t.Errorf("%s: Table 4 diverges", name)
		}
	}
}

// TestStreamedStudyThin pins the released-captures contract: the
// dataset survives without records, record counts come from the store,
// and every experiment still runs — the ones that rescan raw captures
// (A1, A2, A3, A5) replay the crawl, so A3 and A5 print the same text
// for a serial, a 4-worker and a 2-shard study of the same seed.
func TestStreamedStudyThin(t *testing.T) {
	ctx := context.Background()
	newStudy := func() *Study {
		s, err := NewStudy(SmallConfig(51))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := newStudy()
	if err := s.Run(ctx, WithWorkers(2, 2)); err != nil {
		t.Fatal(err)
	}
	for i := range s.Dataset.Crawls {
		if len(s.Dataset.Crawls[i].Records) != 0 {
			t.Fatalf("site %s retained %d records after streaming",
				s.Dataset.Crawls[i].Domain, len(s.Dataset.Crawls[i].Records))
		}
	}
	if s.Dataset.TotalRecords() != 0 {
		t.Errorf("thin dataset reports %d records", s.Dataset.TotalRecords())
	}
	if s.TotalRecords() == 0 {
		t.Error("study lost the pre-release record count")
	}
	for _, id := range []string{"A1", "A2", "A3", "A5", "E0", "E1", "E6", "E7", "E8", "E10"} {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		if out, err := e.Run(s); err != nil {
			t.Errorf("%s failed on a thin study: %v", id, err)
		} else if len(out) < 40 {
			t.Errorf("%s output suspiciously short", id)
		}
	}

	serial := newStudy()
	if err := serial.Run(ctx); err != nil {
		t.Fatal(err)
	}
	parallel := newStudy()
	if err := parallel.Run(ctx, WithWorkers(4, 4)); err != nil {
		t.Fatal(err)
	}
	sharded := newStudy()
	rep, err := sharded.RunSharded(ctx, shard.Options{
		Shards: 2, Dir: t.TempDir(), Workers: 2, DetectWorkers: 2,
		Clock: resilience.NewVirtualClock(), Fresh: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatalf("sharded run degraded: %+v", rep)
	}
	for _, id := range []string{"A3", "A5"} {
		e, _ := ExperimentByID(id)
		want, err := e.Run(serial)
		if err != nil {
			t.Fatalf("%s on the serial study: %v", id, err)
		}
		for name, st := range map[string]*Study{"4-worker": parallel, "2-shard": sharded} {
			got, err := e.Run(st)
			if err != nil {
				t.Errorf("%s on the %s study: %v", id, name, err)
			} else if got != want {
				t.Errorf("%s on the %s study differs from the serial study:\n%s\n---\n%s", id, name, got, want)
			}
		}
	}
}

// TestReplayReproducesRun pins the capture replay's guard rails: it
// visits only the sites the study's dataset holds, so a partial sharded
// merge still replays cleanly, and a replay whose record count
// disagrees with the run's is an error, never a silently different
// capture set.
func TestReplayReproducesRun(t *testing.T) {
	shard.WorkerFailpoint = func(sh, attempt int) error {
		if sh == 1 {
			return fmt.Errorf("scripted loss of shard %d attempt %d", sh, attempt)
		}
		return nil
	}
	defer func() { shard.WorkerFailpoint = nil }()

	s, err := NewStudy(SmallConfig(51))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunSharded(context.Background(), shard.Options{
		Shards: 2, Dir: t.TempDir(), Workers: 2, DetectWorkers: 2,
		Clock: resilience.NewVirtualClock(), MaxRestarts: -1, Fresh: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Fatal("shard 1 survived its scripted loss")
	}
	a3, _ := ExperimentByID("A3")
	if _, err := a3.Run(s); err != nil {
		t.Fatalf("A3 on a partial merge: %v", err)
	}
	s.Result.TotalRecords++
	if _, err := a3.Run(s); err == nil {
		t.Error("A3 accepted a replay whose record count disagrees with the run's")
	}
}

// TestPolicyAuditZeroLeaks: a completed study with zero leaks must
// produce an empty (non-panicking) Table 3 and an empty census.
func TestPolicyAuditZeroLeaks(t *testing.T) {
	s, err := NewStudy(SmallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	// Hand-populate a completed zero-leak study: an empty fold, no
	// sender ever leaked.
	s.adopt(pipeline.NewAccumulator(0).Result(s.Eco, s.Config.Browser), nil, crawler.Options{})
	tbl, err := s.PolicyAudit()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Total != 0 || tbl.NotSpecific != 0 || tbl.Specific != 0 ||
		tbl.NoDescription != 0 || tbl.ExplicitlyNot != 0 {
		t.Errorf("zero-leak audit = %+v, want all zero", tbl)
	}
	cls, err := s.Tracking()
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Providers) != 0 || cls.MultiSenderID != 0 || cls.SingleSender != 0 {
		t.Errorf("zero-leak census = %+v, want empty", cls)
	}
}

// TestPolicyAuditCNAMECloaked: a leak to a CNAME-cloaked receiver is
// the first-party site's disclosure obligation, so the audit counts the
// sender under its own domain — the cloaked tracker never appears in
// the audited population.
func TestPolicyAuditCNAMECloaked(t *testing.T) {
	s, err := NewStudy(SmallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	sender := s.Eco.Sites[0]
	acc := pipeline.NewAccumulator(1)
	acc.Add(pipeline.SiteOut{
		Result: crawler.SiteResult{Crawl: crawler.SiteCrawl{Domain: sender.Domain, Outcome: crawler.OutcomeSuccess}},
		Leaks: []core.Leak{{
			Site:     sender.Domain,
			Receiver: "omtrdc.net",
			Cloaked:  true,
		}},
	})
	s.adopt(acc.Result(s.Eco, s.Config.Browser), nil, crawler.Options{})
	tbl, err := s.PolicyAudit()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Total != 1 {
		t.Fatalf("audited sites = %d, want 1 (the cloaked leak's first-party sender)", tbl.Total)
	}
	if got := tbl.NotSpecific + tbl.Specific + tbl.NoDescription + tbl.ExplicitlyNot; got != 1 {
		t.Errorf("audit categories sum to %d, want 1", got)
	}
}

// TestEvaluateBrowsersBeforeRun pins the documented crawl-independence
// of the §7.1 evaluation: it re-crawls sender sites itself, so calling
// it before Run is valid and returns the full profile set.
func TestEvaluateBrowsersBeforeRun(t *testing.T) {
	s, err := NewStudy(SmallConfig(51))
	if err != nil {
		t.Fatal(err)
	}
	if s.Analysis != nil {
		t.Fatal("fixture unexpectedly ran")
	}
	results := s.EvaluateBrowsers()
	if len(results) != 6 { // baseline + 5 profiles
		t.Fatalf("results = %d, want 6", len(results))
	}
	if results[0].Senders == 0 {
		t.Error("baseline saw no senders")
	}
}
