// Command piicrawl runs the §3.2 data collection over the synthetic
// ecosystem and writes the captured traffic as a JSON dataset, which the
// other tools consume.
//
// Usage:
//
//	piicrawl [-seed N] [-small] [-browser firefox|chrome|brave] [-o dataset.json]
//	         [-universe N] [-workers N] [-funnel] [-stream] [-only domains]
//	         [-faults RATE] [-fault-seed N] [-retries N]
//	         [-site-timeout D] [-quarantine dir]
//	         [-checkpoint file] [-resume]
//	         [-metrics out.json] [-trace out.jsonl] [-pprof addr]
//
// -faults opts the substrate into deterministic fault injection (a
// fraction RATE of hosts become flaky, degrading or dead) and the crawl
// into the resilient runtime: retries with backoff, per-host circuit
// breakers, and partial records instead of dropped sites. -checkpoint
// persists per-site progress; -resume continues a killed run from that
// file, producing the same dataset an uninterrupted run would have.
// -site-timeout caps each site's crawl budget on its virtual clock,
// which only injected faults advance, so it acts only under -faults;
// sites over budget are recorded as "timeout" with their partial
// captures. -quarantine names a directory that collects diagnostics
// bundles for sites whose crawl or detection panicked; the study
// continues without them and -only re-runs them individually.
//
// -metrics and -trace attach the deterministic observer: the former
// writes the run's counter registry and manifest as JSON, the latter
// the per-site stage spans as JSONL. Telemetry is a side channel — the
// dataset and leak output are byte-identical with it on or off, and two
// identically-seeded runs write identical telemetry at any -workers and
// -detect-workers setting. -pprof serves
// net/http/pprof for live profiling (wall-clock, inherently
// nondeterministic — diagnostics only).
//
// Shutdown is crash-only: the first SIGINT/SIGTERM cancels the run —
// the site in flight is dropped, finished sites stay checkpointed, and
// the process exits 0 with a valid, resumable checkpoint. A second
// signal hard-exits immediately.
//
// -stream runs the study instead of the bare crawl: per-site captures
// are scanned as they complete and released immediately, per-stage
// progress counters go to stderr, and the output is the detected leak
// list (identical to piidetect's over a full dataset) instead of the
// dataset — the captures are never all in memory, so there is no
// dataset to write. With -funnel it also reports the capture high-water
// mark, the most captures in flight at once (at most one per worker);
// it depends on scheduling, so it never enters -metrics. Sharded runs (-supervise) write the same
// leak list, and -funnel prints their merged funnel without that mark.
// A -shard worker refuses -o and -funnel: it writes only its sealed
// result under -shard-dir, for the supervisor's merge.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"

	"piileak"
	"piileak/internal/cliflags"
	"piileak/internal/crawler"
	"piileak/internal/shard"
	"piileak/internal/webgen"
)

const prog = "piicrawl"

func main() {
	common := cliflags.Register(flag.CommandLine)
	out := flag.String("o", "", "output path (default stdout): the dataset, or with -stream the leak list")
	funnel := flag.Bool("funnel", false, "print the §3.2 funnel summary to stderr")
	stream := flag.Bool("stream", false, "run crawl+detect as one streaming pass and write the leak list instead of the dataset")
	flag.Parse()

	if err := common.Validate(); err != nil {
		fatal(err)
	}
	shardIdx, shardN, isWorker := common.ShardCoords()
	if isWorker && (*out != "" || *funnel) {
		fatal(errors.New("a -shard worker only seals its result under -shard-dir: -o and -funnel belong to the -supervise run that merges it"))
	}
	if err := cliflags.StartPprof(prog, common.Pprof); err != nil {
		fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cliflags.InstallSignalHandler(prog, cancel)

	if isWorker || common.Supervise || *stream {
		// Only the study paths need the detection machinery (the
		// candidate set costs most of the startup); dataset mode below
		// generates just the ecosystem.
		study, err := piileak.NewStudy(common.StudyConfig())
		if err != nil {
			fatal(err)
		}
		profile, err := common.ResolveProfile(study.Eco)
		if err != nil {
			fatal(err)
		}
		study.Config.Browser = profile
		rt, err := common.Runtime(study.Eco)
		if err != nil {
			fatal(err)
		}
		switch {
		case isWorker:
			workerRun(ctx, study, common, rt, shardIdx, shardN)
			return
		case common.Supervise:
			superviseRun(ctx, study, common, rt, *funnel)
		default:
			streamRun(ctx, study, common, rt, *funnel)
		}
		if *out == "" {
			err = study.WriteLeaksJSON(os.Stdout)
		} else {
			err = crawler.WriteFileAtomic(*out, study.WriteLeaksJSON)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	eco, err := webgen.Generate(common.EcosystemConfig())
	if err != nil {
		fatal(err)
	}
	profile, err := common.ResolveProfile(eco)
	if err != nil {
		fatal(err)
	}
	rt, err := common.Runtime(eco)
	if err != nil {
		fatal(err)
	}

	ds, err := crawler.Run(ctx, eco, profile, common.CrawlerOptions(rt, prog))
	if err != nil {
		if errors.Is(err, context.Canceled) {
			cliflags.ExitInterrupted(prog, common.Checkpoint)
		}
		fatal(err)
	}

	if *funnel {
		printFunnel(ds, ds.TotalRecords(), -1, common.Faults > 0)
	}
	cliflags.PrintQuarantine(prog, rt.Quarantine)
	if err := common.WriteTelemetry(rt); err != nil {
		fatal(err)
	}

	if *out != "" {
		if err := ds.WriteJSONFile(*out); err != nil {
			fatal(err)
		}
		return
	}
	if err := ds.WriteJSON(os.Stdout); err != nil {
		fatal(err)
	}
}

// printFunnel writes the §3.2 funnel summary. captureHighWater < 0
// means a run with no capture high-water mark of its own: the bare
// crawl, or a supervised merge of shard workers.
func printFunnel(ds *crawler.Dataset, totalRecords, captureHighWater int, faulty bool) {
	counts := ds.FunnelCounts()
	fmt.Fprintf(os.Stderr, "sites: %d  success: %d  unreachable: %d  no-auth: %d  signup-blocked: %d  captcha: %d  partial: %d  timeout: %d  crashed: %d\n",
		len(ds.Crawls), counts[crawler.OutcomeSuccess], counts[crawler.OutcomeUnreachable],
		counts[crawler.OutcomeNoAuthFlow], counts[crawler.OutcomeSignupBlocked],
		counts[crawler.OutcomeCaptcha], counts[crawler.OutcomePartial],
		counts[crawler.OutcomeTimeout], counts[crawler.OutcomeCrashed])
	if captureHighWater >= 0 {
		fmt.Fprintf(os.Stderr, "records: %d  inbox mails: %d  spam mails: %d  capture high-water: %d sites\n",
			totalRecords, ds.Mailbox.Count("inbox"), ds.Mailbox.Count("spam"), captureHighWater)
	} else {
		fmt.Fprintf(os.Stderr, "records: %d  inbox mails: %d  spam mails: %d\n",
			totalRecords, ds.Mailbox.Count("inbox"), ds.Mailbox.Count("spam"))
	}
	if faulty {
		attempts, retried, failed := 0, 0, 0
		for _, c := range ds.Crawls {
			attempts += c.Attempts
			retried += c.Retries
			failed += c.FailedFetches
		}
		fmt.Fprintf(os.Stderr, "fetch attempts: %d  retries: %d  failed fetches: %d\n",
			attempts, retried, failed)
	}
}

// shardCrawlerOptions is the crawl-knob subset a sharded run forwards
// to its workers: the shard runtime owns sites, checkpoints and
// quarantine paths, so only the behavioural knobs pass through.
func shardCrawlerOptions(common *cliflags.Common, rt *cliflags.Runtime) crawler.Options {
	return crawler.Options{
		MaxAttempts: common.Retries,
		SiteTimeout: common.SiteTimeout,
		Obs:         rt.Observer,
	}
}

// workerRun executes one shard worker: crawl + detect over the shard's
// interleaved site slice, checkpointed under -shard-dir, ending when
// the checkpoint is sealed into the shard's result file. The supervisor
// (or a later merge) picks the file up; the worker itself writes no
// dataset.
func workerRun(ctx context.Context, study *piileak.Study, common *cliflags.Common, rt *cliflags.Runtime, shardIdx, shardN int) {
	path, err := study.RunShardWorker(ctx, shard.WorkerConfig{
		Shard:         shardIdx,
		Shards:        shardN,
		Dir:           common.ShardDir,
		Workers:       common.Workers,
		DetectWorkers: common.EffectiveDetectWorkers(),
		Options:       shardCrawlerOptions(common, rt),
		QuarantineDir: common.QuarantineDir,
		QuarantineMax: common.QuarantineMax,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			cliflags.ExitInterrupted(prog, shard.CheckpointPath(common.ShardDir, shardIdx, shardN))
		}
		fatal(err)
	}
	if err := common.WriteTelemetry(rt); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: shard %d/%d complete: %s\n", prog, shardIdx, shardN, path)
}

// superviseRun runs the full sharded study under the self-healing
// supervisor, leaving the merged leaks (the -stream output) in the
// study. A partial merge — some shard exhausted its restarts — still
// keeps the surviving leaks; the gaps are in the report. The funnel is
// the merged dataset's, with no capture high-water mark: the captures
// were in flight in the workers.
func superviseRun(ctx context.Context, study *piileak.Study, common *cliflags.Common, rt *cliflags.Runtime, funnel bool) {
	sopts := shard.Options{
		Shards:        common.Shards,
		Dir:           common.ShardDir,
		Workers:       common.Workers,
		DetectWorkers: common.EffectiveDetectWorkers(),
		Crawl:         shardCrawlerOptions(common, rt),
		QuarantineDir: common.QuarantineDir,
		QuarantineMax: common.QuarantineMax,
		MaxRestarts:   common.MaxRestarts,
		Fresh:         !common.Resume,
		StallTimeout:  common.StallTimeout,
	}
	if common.Reexec {
		exe, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		sopts.Command = func(s int) *exec.Cmd {
			// The supervisor owns the worker's lifetime: its stall
			// watchdog kills the process, and the per-attempt ctx does
			// not exist when this factory runs.
			cmd := exec.Command(exe, common.ShardWorkerArgs(s)...) //lint:allow ctxflow supervisor kills the worker itself; per-attempt ctx unavailable here
			cmd.Stderr = os.Stderr
			return cmd
		}
	}
	report, err := study.RunSharded(ctx, sopts)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "%s: interrupted: shard state under %s is valid; continue with -resume\n", prog, common.ShardDir)
			os.Exit(0)
		}
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "%s: %d/%d shards merged, %d sites, %d leaks\n",
		prog, len(report.Completed), report.Shards, report.MergedSites, report.Leaks)
	if report.Partial {
		for _, m := range report.Missing {
			fmt.Fprintf(os.Stderr, "%s: shard %d missing after %d attempt(s): %d site(s) not in the tables (see %s)\n",
				prog, m.Shard, m.Attempts, len(m.Sites), shard.ReportPath(common.ShardDir))
		}
	}
	if funnel {
		printFunnel(study.Dataset, study.TotalRecords(), -1, common.Faults > 0)
	}
	if err := common.WriteTelemetry(rt); err != nil {
		fatal(err)
	}
}

// streamRun executes the fused crawl+detect pipeline through the
// study's Run API, leaving the detected leaks in the study.
func streamRun(ctx context.Context, study *piileak.Study, common *cliflags.Common, rt *cliflags.Runtime, funnel bool) {
	opts := common.RunOptions(rt, prog, cliflags.ProgressPrinter(prog, os.Stderr))
	if err := study.Run(ctx, opts...); err != nil {
		if errors.Is(err, context.Canceled) {
			cliflags.ExitInterrupted(prog, common.Checkpoint)
		}
		fatal(err)
	}

	if funnel {
		printFunnel(study.Dataset, study.TotalRecords(), study.Result.Stats.CaptureHighWater, common.Faults > 0)
	}
	cliflags.PrintQuarantine(prog, rt.Quarantine)
	if err := common.WriteTelemetry(rt); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, prog+":", err)
	os.Exit(1)
}
