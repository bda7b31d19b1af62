// Command piirepro runs the full reproduction: it generates the
// paper-calibrated ecosystem, performs the §3.2 crawl, and regenerates
// every table and figure of the paper's evaluation with paper-vs-measured
// comparisons — the contents of EXPERIMENTS.md.
//
// Usage:
//
//	piirepro [-seed N] [-small] [-experiments E1,E6,E10] [-workers N]
//	         [-browser NAME] [-faults RATE] [-fault-seed N] [-retries N]
//	         [-site-timeout D] [-quarantine dir] [-only domains]
//	         [-checkpoint file] [-resume]
//	         [-metrics out.json] [-trace out.jsonl] [-pprof addr]
//
// piirepro shares piicrawl's full flag surface (internal/cliflags): the
// crash-only runtime's knobs (-site-timeout, -quarantine, -checkpoint,
// -resume, -only), deterministic fault injection (-faults), alternate
// collection browsers (-browser), and the telemetry outputs.
// -site-timeout acts only under -faults: it cuts off a site whose
// virtual clock, which only injected faults advance, passes the budget.
// -metrics and -trace attach the deterministic observer — the tables are
// byte-identical with telemetry on or off, and two identically-seeded
// runs write identical telemetry files.
//
// Sharded runs go through piicrawl: piirepro refuses -shards, -shard
// and -supervise rather than run the study unsharded.
//
// The study runs as one streaming pass: captures are released after
// detection, so peak memory stays bounded at any -universe size, and
// crawl/detect progress goes to stderr. The ablations that rescan raw
// captures (A1, A2, A3, A5) replay the crawl serially to get them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"piileak"
	"piileak/internal/cliflags"
)

const prog = "piirepro"

func main() {
	common := cliflags.Register(flag.CommandLine)
	only := flag.String("experiments", "", "comma-separated experiment IDs (default: all)")
	jsonOut := flag.Bool("json", false, "emit the machine-readable summary instead of text reports")
	flag.Parse()

	// The sharded runtime is piicrawl's: piirepro would run the study
	// unsharded and leave -shard-dir untouched.
	if common.Shards != 0 || common.Shard != "" || common.Supervise {
		fatal(errors.New("-shards, -shard and -supervise are piicrawl's: run a sharded study with piicrawl -shards K -supervise -shard-dir D"))
	}
	if err := common.Validate(); err != nil {
		fatal(err)
	}
	if err := cliflags.StartPprof(prog, common.Pprof); err != nil {
		fatal(err)
	}

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

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cliflags.InstallSignalHandler(prog, cancel)

	fmt.Fprintf(os.Stderr, "piirepro: crawling %d candidate sites with %s...\n",
		study.Eco.Universe().Len(), profile.Name)
	if err := study.Run(ctx, common.RunOptions(rt, prog, cliflags.ProgressPrinter(prog, os.Stderr))...); err != nil {
		if errors.Is(err, context.Canceled) {
			cliflags.ExitInterrupted(prog, common.Checkpoint)
		}
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "piirepro: %d records captured, %d leaks detected\n",
		study.TotalRecords(), len(study.Leaks))
	cliflags.PrintQuarantine(prog, rt.Quarantine)
	if err := common.WriteTelemetry(rt); err != nil {
		fatal(err)
	}

	if *jsonOut {
		if err := study.WriteSummaryJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
	}

	failed := false
	for _, e := range piileak.Experiments() {
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		fmt.Printf("==== %s — %s ====\n\n", e.ID, e.Title)
		out, err := e.Run(study)
		if err != nil {
			failed = true
			fmt.Printf("ERROR: %v\n\n", err)
			continue
		}
		fmt.Println(out)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, prog+":", err)
	os.Exit(1)
}
