package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/faultsim"
	"piileak/internal/obs"
	"piileak/internal/pii"
	"piileak/internal/pipeline"
	"piileak/internal/resilience"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// superviseOpts is the baseline test configuration: fresh directory,
// virtual clock (backoffs cost no wall time), observer attached.
func superviseOpts(dir string, shards int) Options {
	return Options{
		Shards: shards,
		Dir:    dir,
		Clock:  resilience.NewVirtualClock(),
		Crawl:  crawler.Options{Obs: obs.NewRun()},
		Fresh:  true,
	}
}

// withFailpoint installs a WorkerFailpoint for one test and restores
// the nil default afterwards.
func withFailpoint(t *testing.T, fp func(shard, attempt int) error) {
	t.Helper()
	WorkerFailpoint = fp
	t.Cleanup(func() { WorkerFailpoint = nil })
}

// TestSuperviseHealsDeadShards: a shard whose first attempts die is
// restarted with backoff and resumes from its checkpoint; the healed
// run's output is byte-identical to the unsharded one and the report
// records exactly how hard supervision fought.
func TestSuperviseHealsDeadShards(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	opts := superviseOpts(dir, 3)
	withFailpoint(t, func(shard, attempt int) error {
		if shard == 1 && attempt <= 2 {
			return fmt.Errorf("scripted death of shard %d attempt %d", shard, attempt)
		}
		return nil
	})

	res, report, err := Supervise(context.Background(), eco, profile, det, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Partial || len(report.Missing) != 0 {
		t.Fatalf("healed run reported partial: %+v", report)
	}
	if got := report.Attempts[1]; got != 3 {
		t.Errorf("shard 1 attempts = %d, want 3", got)
	}
	if got := report.Restarts[1]; got != 2 {
		t.Errorf("shard 1 restarts = %d, want 2", got)
	}
	for _, s := range []int{0, 2} {
		if got := report.Attempts[s]; got != 1 {
			t.Errorf("shard %d attempts = %d, want 1", s, got)
		}
		if _, ok := report.Restarts[s]; ok {
			t.Errorf("shard %d recorded restarts without dying", s)
		}
	}
	assertMatchesReference(t, res)

	// The report is also on disk, round-trippable, and identical.
	onDisk, err := ReadReport(ReportPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, report) {
		t.Errorf("report.json diverges from the returned report:\n%+v\n%+v", onDisk, report)
	}

	// Supervision telemetry lands in the observer's manifest.
	m := opts.Crawl.Obs.Manifest()
	if m.Sharding == nil {
		t.Fatal("observer manifest has no sharding section")
	}
	if m.Sharding.Completed != 3 || m.Sharding.Missing != 0 {
		t.Errorf("sharding manifest completed/missing = %d/%d, want 3/0", m.Sharding.Completed, m.Sharding.Missing)
	}
	if m.Sharding.Restarts != 2 {
		t.Errorf("sharding manifest restarts = %d, want 2", m.Sharding.Restarts)
	}
	if m.Sharding.MergedSites != int64(report.MergedSites) {
		t.Errorf("sharding manifest merged sites = %d, report says %d", m.Sharding.MergedSites, report.MergedSites)
	}
}

// TestSuperviseExhaustedShardGoesMissing: a shard that dies on every
// attempt exhausts its budget and degrades the run — the merge holds
// the survivors and the report names the lost shard, its attempt count,
// terminal error, and site population.
func TestSuperviseExhaustedShardGoesMissing(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	opts := superviseOpts(dir, 2)
	opts.MaxRestarts = 1
	withFailpoint(t, func(shard, attempt int) error {
		if shard == 1 {
			return errors.New("shard 1 is cursed")
		}
		return nil
	})

	res, report, err := Supervise(context.Background(), eco, profile, det, opts)
	if err != nil {
		t.Fatalf("exhaustion must degrade, not fail: %v", err)
	}
	if !report.Partial {
		t.Fatal("report not marked partial")
	}
	if len(report.Missing) != 1 || report.Missing[0].Shard != 1 {
		t.Fatalf("Missing = %+v, want shard 1", report.Missing)
	}
	m := report.Missing[0]
	if m.Attempts != 2 {
		t.Errorf("missing shard attempts = %d, want 2 (budget 1 restart)", m.Attempts)
	}
	if m.Error == "" {
		t.Error("missing shard carries no terminal error")
	}
	plan, err := NewPlan(eco, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Sites, plan.Domains(eco, 1)) {
		t.Error("missing shard's site list does not match the plan")
	}
	if report.MergedSites != plan.Size(0) {
		t.Errorf("merged %d sites, want shard 0's %d", report.MergedSites, plan.Size(0))
	}
	if len(res.Leaks) != report.Leaks {
		t.Errorf("result holds %d leaks, report says %d", len(res.Leaks), report.Leaks)
	}
	if ob := opts.Crawl.Obs.Manifest().Sharding; ob == nil || ob.Missing != 1 || ob.Completed != 1 {
		t.Errorf("sharding manifest = %+v, want 1 completed / 1 missing", ob)
	}
}

// TestSuperviseResumesMidRunKill: a shard killed mid-run leaves a
// partial checkpoint; a resumed supervision continues from it and the
// final merge is still byte-identical to the unsharded run.
func TestSuperviseResumesMidRunKill(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	const shards = 3

	// Simulate the dead attempt: run the first half of shard 1's slice
	// into its checkpoint, exactly as a worker killed mid-run leaves it.
	shard1 := interleaveSource{src: eco.Universe(), shard: 1, shards: shards}
	sites := make([]*site.Site, shard1.Len()/2)
	for j := range sites {
		sites[j] = shard1.At(j)
	}
	half := pipeline.Options{}
	half.Source = site.Slice(sites)
	half.CheckpointPath = CheckpointPath(dir, 1, shards)
	half.Shard, half.Shards = 1, shards
	if _, err := pipeline.Run(context.Background(), eco, profile, det, half); err != nil {
		t.Fatal(err)
	}

	opts := superviseOpts(dir, shards)
	opts.Fresh = false // resume, do not clear the partial checkpoint
	res, report, err := Supervise(context.Background(), eco, profile, det, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Partial {
		t.Fatalf("resumed run partial: %+v", report)
	}
	assertMatchesReference(t, res)
}

// TestSuperviseReusesVerifiedResults: resuming a finished run re-runs
// nothing — every shard's verified result is reused, so a failpoint
// that would kill any new attempt never fires. Fresh mode clears that
// state and runs into it.
func TestSuperviseReusesVerifiedResults(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	first := superviseOpts(dir, 2)
	if _, report, err := Supervise(context.Background(), eco, profile, det, first); err != nil {
		t.Fatal(err)
	} else if report.Partial {
		t.Fatalf("setup run partial: %+v", report)
	}

	var calls atomic.Int32 // both shards' attempts run concurrently
	withFailpoint(t, func(shard, attempt int) error {
		calls.Add(1)
		return errors.New("no new attempts allowed")
	})

	resumed := superviseOpts(dir, 2)
	resumed.Fresh = false
	res, report, err := Supervise(context.Background(), eco, profile, det, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if report.Partial {
		t.Fatalf("resume of a complete run partial: %+v", report)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("resume ran %d worker attempts over verified results, want 0", n)
	}
	if got := report.Attempts[0] + report.Attempts[1]; got != 0 {
		t.Errorf("resume recorded %d attempts, want 0", got)
	}
	assertMatchesReference(t, res)

	fresh := superviseOpts(dir, 2)
	_, report, err = Supervise(context.Background(), eco, profile, det, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Error("fresh mode reused results instead of re-running")
	}
	if !report.Partial || len(report.Missing) != 2 {
		t.Errorf("fresh run under an always-kill failpoint = %+v, want both shards missing", report)
	}
}

// TestSuperviseCorruptResultGoesMissing: a resumed supervision whose
// directory holds one corrupt result runs that shard again; when every
// new attempt fails, the shard is reported missing — the merge reads
// only the shards supervision verified, never the bad file left behind.
func TestSuperviseCorruptResultGoesMissing(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	if _, _, err := Supervise(context.Background(), eco, profile, det, superviseOpts(dir, 2)); err != nil {
		t.Fatal(err)
	}
	path := ResultPath(dir, 1, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	withFailpoint(t, func(shard, attempt int) error { return errors.New("no new attempt survives") })

	resumed := superviseOpts(dir, 2)
	resumed.Fresh = false
	resumed.MaxRestarts = -1
	_, report, err := Supervise(context.Background(), eco, profile, det, resumed)
	if err != nil {
		t.Fatalf("a corrupt result whose shard exhausted its restarts failed the run: %v", err)
	}
	if !report.Partial || len(report.Missing) != 1 || report.Missing[0].Shard != 1 {
		t.Fatalf("report = %+v, want shard 1 missing", report)
	}
	if report.MergedSites != (&Plan{Shards: 2, Universe: len(eco.Sites)}).Size(0) {
		t.Errorf("merged %d sites, want shard 0's", report.MergedSites)
	}
}

// TestSuperviseRefusesForeignDir: a shard directory written for a
// different split cannot be resumed into.
func TestSuperviseRefusesForeignDir(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	setup := superviseOpts(dir, 2)
	if _, _, err := Supervise(context.Background(), eco, profile, det, setup); err != nil {
		t.Fatal(err)
	}

	wrongK := superviseOpts(dir, 3)
	wrongK.Fresh = false
	if _, _, err := Supervise(context.Background(), eco, profile, det, wrongK); err == nil {
		t.Error("resumed a 2-way directory as a 3-way run")
	}
}

// TestSuperviseFreshClearsEveryShardCount: a run without resume clears
// the checkpoints and results of every shard count, so a 2-way run, then
// a fresh 3-way run in the same directory, resumes as a 3-way run that
// reuses its three results.
func TestSuperviseFreshClearsEveryShardCount(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	for _, k := range []int{2, 3} {
		if _, _, err := Supervise(context.Background(), eco, profile, det, superviseOpts(dir, k)); err != nil {
			t.Fatal(err)
		}
	}
	var calls atomic.Int32
	withFailpoint(t, func(shard, attempt int) error {
		calls.Add(1)
		return errors.New("no new attempts allowed")
	})
	resumed := superviseOpts(dir, 3)
	resumed.Fresh = false
	_, report, err := Supervise(context.Background(), eco, profile, det, resumed)
	if err != nil || report.Partial || calls.Load() != 0 {
		t.Errorf("3-way resume after a fresh 3-way run over a 2-way one: err %v, report %+v, %d attempts; want a full merge and none", err, report, calls.Load())
	}
}

// TestSuperviseRefusesOtherFaultSettings: a shard directory written
// under one fault rate and resumed under another — `-faults 0.2 -shards
// 2 -supervise -shard-dir D`, then `-faults 0.5 -supervise -resume
// -shard-dir D` — is refused by the plan check, and so is a resume at
// other retries: reusing the directory's verified results would merge
// the first run's leaks.
func TestSuperviseRefusesOtherFaultSettings(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	if _, _, err := Supervise(context.Background(), eco, profile, det, superviseOpts(dir, 2)); err != nil {
		t.Fatal(err)
	}
	cfg := eco.Config
	cfg.Faults = &faultsim.Config{Rate: 0.5}
	retries := superviseOpts(dir, 2)
	retries.Crawl.MaxAttempts = 1
	for _, tc := range []struct {
		name string
		eco  *webgen.Ecosystem
		opts Options
	}{
		{"fault-rate", webgen.MustGenerate(cfg), superviseOpts(dir, 2)},
		{"retries", eco, retries},
	} {
		tc.opts.Fresh = false
		_, _, err := Supervise(context.Background(), tc.eco, profile, det, tc.opts)
		if err == nil || !strings.Contains(err.Error(), "does not match this study") {
			t.Errorf("%s: resume err = %v, want the plan refused", tc.name, err)
		}
	}
}

// studyOf7 is `piicrawl -small -seed 7` with faults at rate (0 for
// none): the ecosystem and its detector.
func studyOf7(t *testing.T, rate float64) (*webgen.Ecosystem, pipeline.Detector) {
	t.Helper()
	cfg := webgen.SmallConfig(7)
	if rate > 0 {
		cfg.Faults = &faultsim.Config{Rate: rate}
	}
	eco := webgen.MustGenerate(cfg)
	return eco, detect.MustNewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{})
}

// TestSuperviseRefusesShardOfOtherFaultRate: shard 0 run at 0.2 faults
// and shard 1 at 0.5 — `piicrawl -small -seed 7 -faults 0.2 -shard 0/2
// -shard-dir D`, then `-faults 0.5 -shard 1/2` — and supervised with
// -resume at 0.5 would merge shard 0's 0.2 sites into the 0.5 study. The
// resume is refused before any worker starts.
func TestSuperviseRefusesShardOfOtherFaultRate(t *testing.T) {
	dir := t.TempDir()
	eco2, det := studyOf7(t, 0.2)
	eco5, _ := studyOf7(t, 0.5)
	for s, eco := range []*webgen.Ecosystem{eco2, eco5} {
		if _, err := RunWorker(context.Background(), eco, browser.Firefox88(), det, WorkerConfig{Shard: s, Shards: 2, Dir: dir}); err != nil {
			t.Fatal(err)
		}
	}
	withFailpoint(t, func(shard, attempt int) error { return fmt.Errorf("no worker may start") })
	opts := superviseOpts(dir, 2)
	opts.Fresh = false
	_, _, err := Supervise(context.Background(), eco5, browser.Firefox88(), det, opts)
	if err == nil || !strings.Contains(err.Error(), "does not match this study") {
		t.Errorf("resume err = %v, want shard 0's result refused", err)
	}
}

// TestSuperviseRefusesShardOfOtherBrowser: a Brave shard 0 — `piicrawl
// -small -seed 7 -browser brave -shard 0/2 -shard-dir D` — resumed by a
// Firefox supervision would merge Brave's traffic into a Firefox study.
// The resume is refused before any worker starts.
func TestSuperviseRefusesShardOfOtherBrowser(t *testing.T) {
	dir := t.TempDir()
	eco, det := studyOf7(t, 0)
	if _, err := RunWorker(context.Background(), eco, browser.Brave129(eco.BraveShields), det, WorkerConfig{Shard: 0, Shards: 2, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	withFailpoint(t, func(shard, attempt int) error { return fmt.Errorf("no worker may start") })
	opts := superviseOpts(dir, 2)
	opts.Fresh = false
	_, _, err := Supervise(context.Background(), eco, browser.Firefox88(), det, opts)
	if err == nil || !strings.Contains(err.Error(), "does not match this study") {
		t.Errorf("resume err = %v, want the Brave shard refused", err)
	}
}

// TestSuperviseRefusesCheckpointOfOtherRun: a half-done shard 0
// checkpoint written under Brave, or under a depth-1 candidate set, and
// resumed by a Firefox depth-2 supervision would continue another
// study's crawl. The resume is refused before any worker starts.
func TestSuperviseRefusesCheckpointOfOtherRun(t *testing.T) {
	eco, det := studyOf7(t, 0)
	depth1 := detect.MustNewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{Candidates: pii.CandidateConfig{MaxDepth: 1}})
	var attempts atomic.Int32
	withFailpoint(t, func(shard, attempt int) error {
		attempts.Add(1)
		return fmt.Errorf("no worker may start")
	})
	for _, tc := range []struct {
		name    string
		profile browser.Profile
		det     pipeline.Detector
	}{
		{"brave", browser.Brave129(eco.BraveShields), det},
		{"depth-1", browser.Firefox88(), depth1},
	} {
		dir := t.TempDir()
		shard0 := interleaveSource{src: eco.Universe(), shard: 0, shards: 2}
		sites := make([]*site.Site, shard0.Len()/2)
		for j := range sites {
			sites[j] = shard0.At(j)
		}
		half := pipeline.Options{}
		half.Source = site.Slice(sites)
		half.CheckpointPath = CheckpointPath(dir, 0, 2)
		half.Shard, half.Shards = 0, 2
		if _, err := pipeline.Run(context.Background(), eco, tc.profile, tc.det, half); err != nil {
			t.Fatal(err)
		}

		attempts.Store(0)
		opts := superviseOpts(dir, 2)
		opts.Fresh = false
		_, _, err := Supervise(context.Background(), eco, browser.Firefox88(), det, opts)
		if err == nil || !strings.Contains(err.Error(), "does not match this study") {
			t.Errorf("%s: resume err = %v, want shard 0's checkpoint refused", tc.name, err)
		}
		if n := attempts.Load(); n != 0 {
			t.Errorf("%s: resume started %d worker attempts, want 0", tc.name, n)
		}
	}
}

// TestSuperviseRefusesUnreadableCheckpoint: a shard 0 checkpoint whose
// header its worker cannot read — one of format version 1, or a first
// line that is not JSON — fails every attempt the same way, so a
// resume refuses it before any worker starts, naming the shard and the
// file.
func TestSuperviseRefusesUnreadableCheckpoint(t *testing.T) {
	eco, det := studyOf7(t, 0)
	var attempts atomic.Int32
	withFailpoint(t, func(shard, attempt int) error {
		attempts.Add(1)
		return fmt.Errorf("no worker may start")
	})
	for _, tc := range []struct{ name, header string }{
		{"version-1", `{"version":1,"seed":7}`},
		{"not-json", `ckpt-0-of-2 was here`},
	} {
		dir := t.TempDir()
		ckpt := CheckpointPath(dir, 0, 2)
		if err := os.WriteFile(ckpt, []byte(tc.header+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		attempts.Store(0)
		opts := superviseOpts(dir, 2)
		opts.Fresh = false
		_, _, err := Supervise(context.Background(), eco, browser.Firefox88(), det, opts)
		if err == nil || !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), ckpt) {
			t.Errorf("%s: resume err = %v, want shard 0's checkpoint %s refused", tc.name, err, ckpt)
		}
		if n := attempts.Load(); n != 0 {
			t.Errorf("%s: resume started %d worker attempts, want 0", tc.name, n)
		}
	}
}

// TestSuperviseOptionsValidate pins the contradictory-settings gate.
func TestSuperviseOptionsValidate(t *testing.T) {
	valid := Options{Shards: 2, Dir: "x"}
	if err := valid.Validate(); err != nil {
		t.Fatalf("minimal options rejected: %v", err)
	}
	for name, o := range map[string]Options{
		"zero shards": {Dir: "x"},
		"no dir":      {Shards: 2},
		"negative stall": {Shards: 2, Dir: "x", StallTimeout: -time.Second,
			Command: func(int) *exec.Cmd { return nil }},
		"stall without command": {Shards: 2, Dir: "x", StallTimeout: time.Second},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSuperviseCancellation: a cancelled context is a hard error — the
// run is unusable, not partial.
func TestSuperviseCancellation(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Supervise(ctx, eco, profile, det, superviseOpts(t.TempDir(), 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled supervision returned %v, want context.Canceled", err)
	}
}

// TestSuperviseStallWatchdog: in subprocess mode, a worker whose
// checkpoint stops growing is killed as a stall and restarted; with a
// restart budget of zero it ends up missing, with the stall on record.
// The watchdog polls on the injected virtual clock, so a generous
// timeout still fires instantly in wall time.
func TestSuperviseStallWatchdog(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	opts := superviseOpts(dir, 2)
	opts.MaxRestarts = -1 // never restart: one stalled attempt per shard
	opts.StallTimeout = 10 * time.Second
	opts.Command = func(shard int) *exec.Cmd {
		// A worker that runs forever and never touches its checkpoint.
		return exec.Command("sleep", "300")
	}

	_, report, err := Supervise(context.Background(), eco, profile, det, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Partial || len(report.Missing) != 2 {
		t.Fatalf("stalled run = %+v, want both shards missing", report)
	}
	for s := 0; s < 2; s++ {
		if got := report.Stalls[s]; got != 1 {
			t.Errorf("shard %d stalls = %d, want 1", s, got)
		}
		if report.Missing[s].Error == "" {
			t.Errorf("shard %d missing without a terminal error", s)
		}
	}
	if ob := opts.Crawl.Obs.Manifest().Sharding; ob == nil || ob.Stalls != 2 {
		t.Errorf("sharding manifest = %+v, want 2 stalls", ob)
	}
}

// TestSuperviseMissingShardCarriesStderrTail: a re-execed worker that
// dies terminally leaves its last stderr lines in the report's
// missing-shard entry — the dying words an exit status alone loses.
func TestSuperviseMissingShardCarriesStderrTail(t *testing.T) {
	eco, profile, det, _ := fixture(t)
	dir := t.TempDir()
	opts := superviseOpts(dir, 2)
	opts.MaxRestarts = -1 // one attempt per shard: that attempt's tail is final
	opts.Command = func(shard int) *exec.Cmd {
		script := fmt.Sprintf("echo boot shard %d >&2; echo 'panic: synthetic crash' >&2; exit 3", shard)
		return exec.Command("sh", "-c", script)
	}

	_, report, err := Supervise(context.Background(), eco, profile, det, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Partial || len(report.Missing) != 2 {
		t.Fatalf("crashed run = %+v, want both shards missing", report)
	}
	for _, m := range report.Missing {
		want := []string{fmt.Sprintf("boot shard %d", m.Shard), "panic: synthetic crash"}
		if !reflect.DeepEqual(m.StderrTail, want) {
			t.Errorf("shard %d stderr tail = %q, want %q", m.Shard, m.StderrTail, want)
		}
	}

	// The tail survives the on-disk report round trip.
	onDisk, err := ReadReport(ReportPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk.Missing, report.Missing) {
		t.Errorf("persisted missing entries diverge:\n%+v\n%+v", onDisk.Missing, report.Missing)
	}
}

// TestReportRoundTrip: the report survives disk verbatim and a wrong
// schema is refused.
func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := &Report{
		Schema:      ReportSchema,
		Shards:      4,
		Completed:   []int{0, 2, 3},
		Missing:     []MissingShard{{Shard: 1, Attempts: 3, Error: "cursed", Sites: []string{"a.example"}}},
		Partial:     true,
		MergedSites: 33,
		Leaks:       7,
		Attempts:    map[int]int{0: 1, 1: 3, 2: 1, 3: 2},
		Restarts:    map[int]int{1: 2, 3: 1},
		Stalls:      map[int]int{3: 1},
	}
	if err := WriteReport(dir, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(ReportPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("report changed through the round trip:\n%+v\n%+v", got, r)
	}
	r.Schema = 9
	if err := WriteReport(dir, r); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(ReportPath(dir)); err == nil {
		t.Error("wrong-schema report accepted")
	}
}
