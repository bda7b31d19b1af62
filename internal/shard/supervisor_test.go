package shard

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"reflect"
	"testing"
	"time"

	"piileak/internal/crawler"
	"piileak/internal/obs"
	"piileak/internal/resilience"
	"piileak/internal/site"
)

// superviseOpts is the baseline test configuration: fresh directory,
// virtual clock (backoffs cost no wall time), observer attached.
func superviseOpts(dir string, shards int) Options {
	return Options{
		Shards: shards,
		Dir:    dir,
		Clock:  resilience.NewVirtualClock(),
		Obs:    obs.NewRun(nil),
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
	m := opts.Obs.Manifest()
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
	plan, err := ReadPlan(PlanPath(dir))
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
	if ob := opts.Obs.Manifest().Sharding; ob == nil || ob.Missing != 1 || ob.Completed != 1 {
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

	// Simulate the dead attempt: crawl the first half of shard 1's slice
	// into its checkpoint, exactly as a worker killed mid-run leaves it.
	plan, err := NewPlan(eco, shards)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := plan.Sites(eco, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crawler.Run(context.Background(), eco, profile, crawler.Options{
		Source:         site.Slice(sites[:len(sites)/2]),
		CheckpointPath: CheckpointPath(dir, 1, shards),
		Shard:          1,
		Shards:         shards,
	}); err != nil {
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

	calls := 0
	withFailpoint(t, func(shard, attempt int) error {
		calls++
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
	if calls != 0 {
		t.Errorf("resume ran %d worker attempts over verified results, want 0", calls)
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
	if calls == 0 {
		t.Error("fresh mode reused results instead of re-running")
	}
	if !report.Partial || len(report.Missing) != 2 {
		t.Errorf("fresh run under an always-kill failpoint = %+v, want both shards missing", report)
	}
}

// TestSuperviseRefusesForeignDir: a shard directory planned for a
// different study or split cannot be resumed into.
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

	other, err := NewPlan(eco, 2)
	if err != nil {
		t.Fatal(err)
	}
	other.EcoSeed++
	if err := WritePlan(dir, other); err != nil {
		t.Fatal(err)
	}
	foreign := superviseOpts(dir, 2)
	foreign.Fresh = false
	if _, _, err := Supervise(context.Background(), eco, profile, det, foreign); err == nil {
		t.Error("resumed a directory planned for a different study")
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
	if ob := opts.Obs.Manifest().Sharding; ob == nil || ob.Stalls != 2 {
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
