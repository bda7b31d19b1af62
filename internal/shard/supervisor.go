package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/obs"
	"piileak/internal/pipeline"
	"piileak/internal/resilience"
	"piileak/internal/webgen"
)

// WorkerFailpoint, when non-nil, is invoked before every in-process
// worker attempt with the shard index and the 1-based attempt number;
// a non-nil return simulates that attempt dying. The supervisor tests
// use it to script shard deaths at precise points (fail shard 2 twice,
// then let it through). Test-only; leave nil in production code.
var WorkerFailpoint func(shard, attempt int) error

// Options configures a supervised sharded run.
type Options struct {
	// Shards is K, the number of independent failure domains.
	Shards int
	// Dir is the shard working directory: plan.json, per-shard
	// checkpoints and results, and report.json all live here.
	Dir string
	// Workers/DetectWorkers/Buffer are each shard worker's pipeline
	// knobs.
	Workers, DetectWorkers, Buffer int
	// Crawl carries the base crawl options handed to every worker —
	// faults, transport policy, site timeout. The site source,
	// checkpoint and shard fields are owned by the runtime and
	// overwritten per worker.
	Crawl crawler.Options
	// QuarantineDir, when set, collects crash bundles shard-unique under
	// one shared directory; QuarantineMax caps each worker's persisted
	// bundle files (oldest evicted first, 0 = unbounded).
	QuarantineDir string
	QuarantineMax int
	// MaxRestarts caps how many times a dead or stalled shard is
	// restarted before it is declared missing; < 0 means never restart,
	// 0 selects the default (2).
	MaxRestarts int
	// Restart is the backoff policy between restarts of the same shard
	// (seeded, deterministic); zero value takes resilience defaults.
	Restart resilience.Policy
	// Clock times the restart backoffs and the stall watchdog's polls.
	// nil selects the wall clock; tests inject a VirtualClock so
	// supervision is instant and deterministic.
	Clock resilience.Clock
	// Obs observes the supervised run: per-shard attempt/restart/stall
	// counters, completion and merge counts, and shard/merge spans. It
	// is also handed to in-process workers, whose pipeline telemetry
	// accumulates into the same registry.
	Obs *obs.Run
	// Fresh clears each shard's previous checkpoint and result before
	// running. The default resumes: verified results are reused without
	// re-crawling, checkpoints continue where they stopped.
	Fresh bool
	// Command, when set, selects subprocess mode: each worker attempt
	// runs Command(shard) — typically piicrawl re-execed with
	// -shard i/K — instead of an in-process pipeline, and is judged by
	// its exit status plus the result file it leaves behind. cliflags
	// builds the re-exec argv; the supervisor stays CLI-agnostic.
	Command func(shard int) *exec.Cmd
	// StallTimeout arms the subprocess watchdog: a worker whose
	// checkpoint file stops growing for this long is killed and counted
	// as a stall (then restarted like any death). <= 0 disables the
	// watchdog. In-process workers rely on the crawl's own SiteTimeout
	// watchdog instead.
	StallTimeout time.Duration
}

// Validate rejects contradictory supervisor settings.
func (o Options) Validate() error {
	if o.Shards < 1 {
		return fmt.Errorf("shard: Shards must be >= 1, got %d", o.Shards)
	}
	if o.Dir == "" {
		return fmt.Errorf("shard: supervisor needs a working Dir")
	}
	if o.StallTimeout < 0 {
		return fmt.Errorf("shard: negative StallTimeout %v", o.StallTimeout)
	}
	if o.StallTimeout > 0 && o.Command == nil {
		return fmt.Errorf("shard: StallTimeout set without Command — in-process workers use the crawl SiteTimeout watchdog")
	}
	return nil
}

// maxRestarts resolves the restart budget.
func (o Options) maxRestarts() int {
	if o.MaxRestarts < 0 {
		return 0
	}
	if o.MaxRestarts == 0 {
		return 2
	}
	return o.MaxRestarts
}

// shardOutcome is one shard's supervision summary.
type shardOutcome struct {
	shard    int
	result   *Result // verified result; nil when the shard is missing
	attempts int
	restarts int
	stalls   int
	err      error // terminal error when result == nil
	// stderrTail holds the last failed subprocess attempt's trailing
	// stderr lines for the missing-shard report.
	stderrTail []string
}

// Supervise runs a complete sharded study: plan, run every shard under
// restart supervision, then verify and merge. Shards run concurrently,
// each as an independently-checkpointed worker; a worker that dies (or,
// in subprocess mode, stalls) is restarted up to MaxRestarts times with
// seeded backoff, resuming from its own checkpoint so completed sites
// are never recrawled. A shard that exhausts its budget degrades the
// run instead of failing it: the merge folds the survivors and the
// report lists the lost shard with its exact site population.
//
// The returned error is reserved for the run being unusable — bad
// options, a poisoned plan, corrupt (not absent) shard results, or
// cancellation. Missing shards are data (Report.Partial), not errors.
func Supervise(ctx context.Context, eco *webgen.Ecosystem, profile browser.Profile, det pipeline.Detector, opts Options) (*pipeline.Result, *Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	clock := opts.Clock
	if clock == nil {
		clock = resilience.RealClock{}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("shard: create dir: %w", err)
	}

	plan, err := preparePlan(eco, opts)
	if err != nil {
		return nil, nil, err
	}

	o := opts.Obs
	outcomes := make([]shardOutcome, opts.Shards)
	var wg sync.WaitGroup
	for s := 0; s < opts.Shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			outcomes[s] = superviseShard(ctx, eco, profile, det, opts, clock, s)
		}(s)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	var results []*Result
	for i := range outcomes {
		out := &outcomes[i]
		if out.result != nil {
			results = append(results, out.result)
			o.Count(obs.MetricShardsCompleted, 1)
			o.Count(obs.MetricShardDigests, 1)
		} else {
			o.Count(obs.MetricShardsMissing, 1)
		}
	}

	sp := o.StartSpan(obs.StageMerge, "merge", 0)
	res, report, err := Merge(eco, profile, plan, results)
	if err != nil {
		return nil, nil, err
	}
	sp.SetN(report.MergedSites)
	sp.End()
	o.Count(obs.MetricShardMergedSites, int64(report.MergedSites))

	// Fold the supervision history into the merge's report: attempt
	// counts per shard, and the terminal error on each missing one.
	report.Attempts = map[int]int{}
	for i := range outcomes {
		out := &outcomes[i]
		report.Attempts[out.shard] = out.attempts
		if out.restarts > 0 {
			if report.Restarts == nil {
				report.Restarts = map[int]int{}
			}
			report.Restarts[out.shard] = out.restarts
		}
		if out.stalls > 0 {
			if report.Stalls == nil {
				report.Stalls = map[int]int{}
			}
			report.Stalls[out.shard] = out.stalls
		}
	}
	for i := range report.Missing {
		m := &report.Missing[i]
		m.Attempts = outcomes[m.Shard].attempts
		if e := outcomes[m.Shard].err; e != nil {
			m.Error = e.Error()
		}
		m.StderrTail = outcomes[m.Shard].stderrTail
	}
	if err := WriteReport(opts.Dir, report); err != nil {
		return nil, nil, err
	}
	return res, report, nil
}

// preparePlan writes (or validates) the plan manifest and clears stale
// shard state under Fresh.
func preparePlan(eco *webgen.Ecosystem, opts Options) (*Plan, error) {
	plan, err := NewPlan(eco, opts.Shards)
	if err != nil {
		return nil, err
	}
	path := PlanPath(opts.Dir)
	if existing, err := ReadPlan(path); err == nil && !opts.Fresh {
		// A resumed run must be resuming THIS study: same partition,
		// same seeds, same universe.
		if err := existing.Verify(eco); err != nil {
			return nil, fmt.Errorf("shard: %s does not match this study: %w", path, err)
		}
		if existing.Shards != opts.Shards {
			return nil, fmt.Errorf("shard: %s plans %d shards, run wants %d — use a fresh dir or matching -shards", path, existing.Shards, opts.Shards)
		}
		return existing, nil
	}
	if opts.Fresh {
		for s := 0; s < opts.Shards; s++ {
			os.Remove(CheckpointPath(opts.Dir, s, opts.Shards))
			os.Remove(ResultPath(opts.Dir, s, opts.Shards))
		}
	}
	if err := WritePlan(opts.Dir, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// superviseShard runs one shard's attempt/restart loop to completion or
// budget exhaustion.
func superviseShard(ctx context.Context, eco *webgen.Ecosystem, profile browser.Profile, det pipeline.Detector, opts Options, clock resilience.Clock, s int) shardOutcome {
	out := shardOutcome{shard: s}
	o := opts.Obs
	kind := strconv.Itoa(s)
	restart := opts.Restart.WithDefaults()
	budget := opts.maxRestarts()
	resultPath := ResultPath(opts.Dir, s, opts.Shards)

	// A verified result from a previous (or concurrent-resumed) run is
	// already done — reuse it instead of recrawling. Fresh mode removed
	// it in preparePlan.
	if r, err := ReadResult(resultPath); err == nil && r.Manifest.EcoSeed == eco.Config.Seed {
		out.result = r
		return out
	}

	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			out.err = err
			return out
		}
		out.attempts = attempt
		o.CountKind(obs.MetricShardRuns, kind, 1)
		sp := o.StartSpan(obs.StageShard, fmt.Sprintf("shard-%d-of-%d", s, opts.Shards), s)

		stallsBefore := out.stalls
		err := runAttempt(ctx, eco, profile, det, opts, clock, s, attempt, &out)
		if out.stalls > stallsBefore {
			o.CountKind(obs.MetricShardStalls, kind, int64(out.stalls-stallsBefore))
		}
		if err == nil {
			// Trust nothing the worker said — only the result file it
			// left, digest-verified.
			r, verr := ReadResult(resultPath)
			if verr == nil {
				sp.SetN(len(r.Records))
				sp.End()
				out.result = r
				out.err = nil
				return out
			}
			err = verr
		}
		sp.End()
		out.err = err
		if ctx.Err() != nil {
			return out
		}
		if attempt > budget {
			return out
		}
		out.restarts++
		o.CountKind(obs.MetricShardRestarts, kind, 1)
		d := restart.Backoff(eco.Config.Seed, "shard-"+kind, attempt)
		if serr := resilience.SleepContext(ctx, clock, d); serr != nil {
			out.err = serr
			return out
		}
	}
}

// runAttempt executes one worker attempt, in-process or subprocess.
func runAttempt(ctx context.Context, eco *webgen.Ecosystem, profile browser.Profile, det pipeline.Detector, opts Options, clock resilience.Clock, s, attempt int, out *shardOutcome) error {
	if fp := WorkerFailpoint; fp != nil {
		if err := fp(s, attempt); err != nil {
			return err
		}
	}
	if opts.Command != nil {
		return runSubprocess(ctx, opts.Command(s), CheckpointPath(opts.Dir, s, opts.Shards), opts.StallTimeout, clock, out)
	}
	crawlOpts := opts.Crawl
	crawlOpts.Obs = opts.Obs
	_, err := RunWorker(ctx, eco, profile, det, WorkerConfig{
		Shard:         s,
		Shards:        opts.Shards,
		Dir:           opts.Dir,
		Workers:       opts.Workers,
		DetectWorkers: opts.DetectWorkers,
		Buffer:        opts.Buffer,
		Options:       crawlOpts,
		QuarantineDir: opts.QuarantineDir,
		QuarantineMax: opts.QuarantineMax,
	})
	return err
}

// runSubprocess runs one re-execed worker attempt under the
// checkpoint-growth stall watchdog. The watchdog needs no wall-time
// reads: it sleeps on the injected clock and compares checkpoint sizes
// between polls, so a worker that stops appending for a full
// StallTimeout window is killed and the attempt reported as a stall.
func runSubprocess(ctx context.Context, cmd *exec.Cmd, ckptPath string, stall time.Duration, clock resilience.Clock, out *shardOutcome) error {
	if cmd == nil {
		return fmt.Errorf("shard: subprocess mode produced no command")
	}
	// Tee the worker's stderr through a line tail so a terminal failure
	// reports the process's last words, not just its exit status. The
	// tail from the final failed attempt lands in report.json's
	// missing-shard entry.
	tail := newTailWriter(cmd.Stderr, stderrTailLines)
	cmd.Stderr = tail
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("shard: start worker: %w", err)
	}
	done := make(chan error, 1)
	// The wait pump exits when the worker does, and every path below
	// either reaps the worker or kills it first.
	//lint:allow goroleak wait pump exits when the worker process is reaped or killed
	go func() { done <- cmd.Wait() }()

	var stallCh <-chan struct{}
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	if stall > 0 {
		ch := make(chan struct{})
		stallCh = ch
		interval := stall / 4
		if interval <= 0 {
			interval = stall
		}
		go func() {
			lastSize := int64(-1)
			idle := time.Duration(0)
			for {
				if resilience.SleepContext(watchCtx, clock, interval) != nil {
					return
				}
				size := int64(0)
				if fi, err := os.Stat(ckptPath); err == nil {
					size = fi.Size()
				}
				if size != lastSize {
					lastSize = size
					idle = 0
					continue
				}
				idle += interval
				if idle >= stall {
					close(ch)
					return
				}
			}
		}()
	}

	select {
	case err := <-done:
		if err != nil {
			out.stderrTail = tail.Tail()
			return fmt.Errorf("shard: worker exited: %w", err)
		}
		return nil
	case <-stallCh:
		out.stalls++
		cmd.Process.Kill()
		<-done
		out.stderrTail = tail.Tail()
		return fmt.Errorf("shard: worker stalled (checkpoint idle for %v); killed", stall)
	case <-ctx.Done():
		cmd.Process.Kill()
		<-done
		return ctx.Err()
	}
}

// WriteReport persists the merge report atomically as indented JSON.
func WriteReport(dir string, r *Report) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return fmt.Errorf("shard: marshal report: %w", err)
	}
	return atomicWrite(ReportPath(dir), append(data, '\n'))
}

// ReadReport loads a merge report.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: read report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("shard: parse report: %w", err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("shard: report schema %d, want %d", r.Schema, ReportSchema)
	}
	return &r, nil
}
