package piileak

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/pipeline"
	"piileak/internal/shard"
)

// The sharded torture harness: the kill-at-a-checkpoint-append machinery
// of torture_test.go pointed at shard workers. Each re-execed child runs
// one shard of a K-way split end to end (crawl + detect + result file);
// the parent kills children at seeded random append points — including
// mid-record — re-runs them until every shard survives, then verifies
// and merges the shard results. The merged leak list, analysis and thin
// dataset must be byte-identical to an unsharded streamed run that was
// never interrupted.

const shardTortureK = 2

// TestTortureShardChild is the subprocess body: one shard worker that
// may be configured to kill itself partway through a checkpoint append.
// It only runs when re-exec'd by the sharded torture parent.
func TestTortureShardChild(t *testing.T) {
	if os.Getenv("PIILEAK_SHARD_TORTURE_CHILD") != "1" {
		t.Skip("shard torture child: only runs re-exec'd by TestTortureShardedCrashConsistency")
	}
	killAt, _ := strconv.Atoi(os.Getenv("PIILEAK_SHARD_TORTURE_KILL_N"))
	killEvent := os.Getenv("PIILEAK_SHARD_TORTURE_KILL_EVENT")
	if killAt > 0 {
		crawler.CheckpointFailpoint = func(event string, appends int) {
			if event == killEvent && appends >= killAt {
				os.Exit(tortureExitCode)
			}
		}
	}
	sh, err := strconv.Atoi(os.Getenv("PIILEAK_SHARD_TORTURE_SHARD"))
	if err != nil {
		t.Fatal(err)
	}
	eco := tortureEcosystem()
	det, err := detect.NewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.RunWorker(context.Background(), eco, browser.Firefox88(), det, shard.WorkerConfig{
		Shard:  sh,
		Shards: shardTortureK,
		Dir:    os.Getenv("PIILEAK_SHARD_TORTURE_DIR"),
	}); err != nil {
		t.Fatal(err)
	}
}

// runShardTortureChild re-execs the test binary as one shard worker and
// returns its exit code (0 = shard completed and wrote its verified
// result, tortureExitCode = killed at the configured failpoint).
func runShardTortureChild(t *testing.T, dir string, sh, killAt int, killEvent string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestTortureShardChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"PIILEAK_SHARD_TORTURE_CHILD=1",
		"PIILEAK_SHARD_TORTURE_DIR="+dir,
		fmt.Sprintf("PIILEAK_SHARD_TORTURE_SHARD=%d", sh),
		fmt.Sprintf("PIILEAK_SHARD_TORTURE_KILL_N=%d", killAt),
		"PIILEAK_SHARD_TORTURE_KILL_EVENT="+killEvent,
	)
	output, err := cmd.CombinedOutput()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() == tortureExitCode {
		return tortureExitCode
	}
	t.Fatalf("shard torture child %d (kill %s@%d): %v\n%s", sh, killEvent, killAt, err, output)
	return -1
}

// TestTortureShardedCrashConsistency kills re-execed shard workers at
// seeded random checkpoint appends — leaving genuinely torn tails and
// absent result files — resumes each shard until it completes, then
// merges and requires byte-identity with an uninterrupted unsharded
// run. This is the subprocess arm of the tentpole invariant; the
// in-process arm is TestShardedRunsByteIdentical.
func TestTortureShardedCrashConsistency(t *testing.T) {
	eco := tortureEcosystem()
	det, err := detect.NewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pipeline.Run(context.Background(), eco, browser.Firefox88(), det, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refLeaks, err := json.MarshalIndent(ref.Leaks, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	var refDS bytes.Buffer
	if err := ref.Dataset.WriteJSON(&refDS); err != nil {
		t.Fatal(err)
	}

	rounds, maxKills := 2, 3
	if testing.Short() {
		rounds, maxKills = 1, 2
	}
	rng := rand.New(rand.NewSource(1213))
	events := []string{"pre", "mid", "post"}

	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		totalKills := 0
		for sh := 0; sh < shardTortureK; sh++ {
			finished := false
			for k := 0; k < maxKills && !finished; k++ {
				killAt := 1 + rng.Intn(8)
				event := events[rng.Intn(len(events))]
				if runShardTortureChild(t, dir, sh, killAt, event) == 0 {
					finished = true
				} else {
					totalKills++
				}
			}
			if !finished && runShardTortureChild(t, dir, sh, 0, "") != 0 {
				t.Fatalf("round %d: shard %d's uninterrupted resume did not complete", round, sh)
			}
		}
		t.Logf("round %d: shards survived %d kills", round, totalKills)

		plan, err := shard.NewPlan(eco, shardTortureK)
		if err != nil {
			t.Fatal(err)
		}
		res, report, err := shard.MergeDir(eco, browser.Firefox88(), plan, dir)
		if err != nil {
			t.Fatal(err)
		}
		if report.Partial || len(report.Completed) != shardTortureK {
			t.Fatalf("round %d: merge degraded after kills: %+v", round, report)
		}
		gotLeaks, err := json.MarshalIndent(res.Leaks, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refLeaks, gotLeaks) {
			t.Fatalf("round %d: merged leaks after %d kills are not byte-identical (%d vs %d bytes)",
				round, totalKills, len(gotLeaks), len(refLeaks))
		}
		if got, want := res.Analysis.Headline(), ref.Analysis.Headline(); got != want {
			t.Errorf("round %d: headline diverges:\n%+v\n%+v", round, got, want)
		}
		if !reflect.DeepEqual(res.Tracking.Classification(), ref.Tracking.Classification()) {
			t.Errorf("round %d: Table 2 classification diverges", round)
		}
		var gotDS bytes.Buffer
		if err := res.Dataset.WriteJSON(&gotDS); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refDS.Bytes(), gotDS.Bytes()) {
			t.Errorf("round %d: merged dataset diverges (%d vs %d bytes)", round, gotDS.Len(), refDS.Len())
		}
	}
}
