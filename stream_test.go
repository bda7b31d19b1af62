package piileak

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/obs"
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

// TestStreamModesByteIdentical is the pipeline's hard invariant: batch,
// streamed-serial, streamed-parallel and checkpoint-resumed runs must
// produce byte-identical leak output and identical Table 1/2/4 numbers,
// regardless of worker counts or completion order. The streamed arms
// run with an active observer — telemetry is a side channel and must
// not move a single output byte.
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

	batch := newStudy()
	if err := batch.Run(ctx); err != nil {
		t.Fatal(err)
	}

	serial := newStudy()
	if err := serial.Run(ctx, WithStream(), WithObserver(obs.NewRun(nil))); err != nil {
		t.Fatal(err)
	}

	parallel := newStudy()
	if err := parallel.Run(ctx, WithStream(), WithWorkers(4, 4), WithBuffer(2), WithObserver(obs.NewRun(nil))); err != nil {
		t.Fatal(err)
	}

	// Resumed: pre-crawl half the sites into a checkpoint, then stream
	// the study with Resume — the checkpointed half is emitted from the
	// file, the rest is crawled live.
	resumed := newStudy()
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	half := resumed.Eco.Sites[:len(resumed.Eco.Sites)/2]
	if _, err := crawler.Run(context.Background(), resumed.Eco, resumed.Config.Browser, crawler.Options{
		Source: site.Slice(half), CheckpointPath: ckpt,
	}); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(ctx, WithStream(), WithWorkers(3, 2),
		WithCheckpoint(ckpt), WithResume(nil), WithObserver(obs.NewRun(nil))); err != nil {
		t.Fatal(err)
	}

	want := leaksJSON(t, batch)
	wantT2, err := batch.Tracking()
	if err != nil {
		t.Fatal(err)
	}
	wantT4, err := batch.EvaluateBlocklists()
	if err != nil {
		t.Fatal(err)
	}

	for name, s := range map[string]*Study{
		"streamed-serial":   serial,
		"streamed-parallel": parallel,
		"resumed":           resumed,
	} {
		if got := leaksJSON(t, s); !bytes.Equal(want, got) {
			t.Errorf("%s: leak JSON diverges from batch (%d vs %d bytes)", name, len(got), len(want))
		}
		if got, want := s.Analysis.Headline(), batch.Analysis.Headline(); got != want {
			t.Errorf("%s: headline diverges:\n%+v\n%+v", name, got, want)
		}
		if !reflect.DeepEqual(s.Analysis.ByMethod(), batch.Analysis.ByMethod()) {
			t.Errorf("%s: Table 1a diverges", name)
		}
		if !reflect.DeepEqual(s.Analysis.ByEncoding(), batch.Analysis.ByEncoding()) {
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

// TestStreamedStudyThin pins the streamed study's released-captures
// contract: the dataset survives without records, record counts come
// from the store, and capture-rescanning experiments refuse to run
// while capture-free ones still work.
func TestStreamedStudyThin(t *testing.T) {
	s, err := NewStudy(SmallConfig(51))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), WithStream(), WithWorkers(2, 2)); err != nil {
		t.Fatal(err)
	}
	if !s.Streamed {
		t.Fatal("study not marked Streamed")
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
	for _, id := range []string{"A1", "A2", "A3", "A5"} {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		if !e.NeedsCaptures {
			t.Errorf("%s not marked NeedsCaptures", id)
		}
		if _, err := e.Run(s); err == nil {
			t.Errorf("%s ran on a streamed study despite released captures", id)
		}
	}
	for _, id := range []string{"E0", "E1", "E6", "E7", "E8", "E10"} {
		e, _ := ExperimentByID(id)
		if out, err := e.Run(s); err != nil {
			t.Errorf("%s failed on streamed study: %v", id, err)
		} else if len(out) < 40 {
			t.Errorf("%s output suspiciously short", id)
		}
	}
}

// TestPolicyAuditZeroLeaks: a completed study with zero leaks must
// produce an empty (non-panicking) Table 3 and an empty census.
func TestPolicyAuditZeroLeaks(t *testing.T) {
	s, err := NewStudy(SmallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	// Hand-populate a completed zero-leak study (the analysis exists,
	// no sender ever leaked).
	s.Analysis = core.Analyze(nil, 0)
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
	s.Leaks = []core.Leak{{
		Site:     sender.Domain,
		Receiver: "omtrdc.net",
		Cloaked:  true,
	}}
	s.Analysis = core.Analyze(s.Leaks, 1)
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
