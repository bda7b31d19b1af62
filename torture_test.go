package piileak

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/countermeasure"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/faultsim"
	"piileak/internal/tracking"
	"piileak/internal/webgen"
)

// The crash-consistency torture harness. The parent test re-execs this
// test binary as a checkpointing crawl subprocess and kills it — via
// os.Exit at a seeded random checkpoint append, before, between, or
// after the two halves of a record write — then resumes, repeatedly,
// until a run survives to completion. The surviving dataset, its leak
// list and Tables 1/2/4 must be identical to an uninterrupted run's: a
// kill at any point may cost in-flight work, never correctness.

const (
	tortureSeed     = 97
	tortureExitCode = 137 // the child's simulated SIGKILL
)

func tortureEcosystem() *webgen.Ecosystem {
	cfg := webgen.SmallConfig(tortureSeed)
	cfg.Faults = &faultsim.Config{Rate: 0.3}
	return webgen.MustGenerate(cfg)
}

// tortureTables runs crawl-then-detect over a full dataset crawled from
// eco and computes the paper's tables from it, Table 4 over the
// dataset's records — the reference every run path must reproduce.
func tortureTables(t *testing.T, eco *webgen.Ecosystem, ds *crawler.Dataset) ([]core.Leak, *core.Analysis, *tracking.Classification, *countermeasure.Table4) {
	t.Helper()
	eng, err := detect.NewEngine(ds.Persona, dnssim.NewClassifier(ds.Zone()), detect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := eng.NewScanner()
	var leaks []core.Leak
	successes := ds.Successes()
	for _, c := range successes {
		leaks = append(leaks, sc.DetectSite(c.Domain, c.Records)...)
	}
	analysis := core.Analyze(leaks, len(successes))
	cls := tracking.Classify(leaks)
	lists, err := countermeasure.ParseLists(eco.EasyListText, eco.EasyPrivacyText)
	if err != nil {
		t.Fatal(err)
	}
	var trackers []string
	for _, tr := range cls.Trackers {
		trackers = append(trackers, tr.Receiver)
	}
	return leaks, analysis, cls, countermeasure.EvaluateBlocklists(leaks, ds, lists, trackers)
}

// TestTortureChild is the subprocess body: a resumable checkpointing
// crawl that may be configured to kill itself partway through a
// checkpoint append. It only runs when re-exec'd by the torture parent.
func TestTortureChild(t *testing.T) {
	if os.Getenv("PIILEAK_TORTURE_CHILD") != "1" {
		t.Skip("torture child: only runs re-exec'd by TestTortureCrashConsistency")
	}
	killAt, _ := strconv.Atoi(os.Getenv("PIILEAK_TORTURE_KILL_N"))
	killEvent := os.Getenv("PIILEAK_TORTURE_KILL_EVENT")
	if killAt > 0 {
		crawler.CheckpointFailpoint = func(event string, appends int) {
			if event == killEvent && appends >= killAt {
				os.Exit(tortureExitCode)
			}
		}
	}
	ds, err := crawler.Run(context.Background(), tortureEcosystem(), browser.Firefox88(), crawler.Options{
		CheckpointPath: os.Getenv("PIILEAK_TORTURE_CKPT"), Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteJSONFile(os.Getenv("PIILEAK_TORTURE_OUT")); err != nil {
		t.Fatal(err)
	}
}

// runTortureChild re-execs the test binary as a torture child and
// returns its exit code (0 = survived, tortureExitCode = killed at the
// configured failpoint; anything else fails the test).
func runTortureChild(t *testing.T, ckpt, out string, killAt int, killEvent string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestTortureChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"PIILEAK_TORTURE_CHILD=1",
		"PIILEAK_TORTURE_CKPT="+ckpt,
		"PIILEAK_TORTURE_OUT="+out,
		fmt.Sprintf("PIILEAK_TORTURE_KILL_N=%d", killAt),
		"PIILEAK_TORTURE_KILL_EVENT="+killEvent,
	)
	output, err := cmd.CombinedOutput()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() == tortureExitCode {
		return tortureExitCode
	}
	t.Fatalf("torture child (kill %s@%d): %v\n%s", killEvent, killAt, err, output)
	return -1
}

// TestTortureCrashConsistency kills a checkpointing crawl subprocess at
// seeded random points — including mid-record, leaving a genuinely torn
// tail — resumes it until it completes, and asserts the result is
// indistinguishable from a run that was never interrupted.
func TestTortureCrashConsistency(t *testing.T) {
	eco := tortureEcosystem()
	ref, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var refBuf bytes.Buffer
	if err := ref.WriteJSON(&refBuf); err != nil {
		t.Fatal(err)
	}
	refLeaks, refT1, refT2, refT4 := tortureTables(t, eco, ref)

	rounds, maxKills := 3, 4
	if testing.Short() {
		rounds, maxKills = 1, 3
	}
	rng := rand.New(rand.NewSource(911))
	events := []string{"pre", "mid", "post"}

	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "ckpt.jsonl")
		out := filepath.Join(dir, "ds.json")

		kills := 0
		finished := false
		for k := 0; k < maxKills && !finished; k++ {
			killAt := 1 + rng.Intn(12)
			event := events[rng.Intn(len(events))]
			if runTortureChild(t, ckpt, out, killAt, event) == 0 {
				finished = true // completed before reaching the failpoint
			} else {
				kills++
			}
		}
		if !finished && runTortureChild(t, ckpt, out, 0, "") != 0 {
			t.Fatalf("round %d: uninterrupted resume did not complete", round)
		}
		t.Logf("round %d: survived %d kills", round, kills)

		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refBuf.Bytes(), got) {
			t.Fatalf("round %d: dataset after %d kills is not byte-identical to the uninterrupted run (%d vs %d bytes)",
				round, kills, len(got), refBuf.Len())
		}
		ds, err := crawler.ReadJSONFile(out)
		if err != nil {
			t.Fatal(err)
		}
		leaks, t1, t2, t4 := tortureTables(t, eco, ds)
		if !reflect.DeepEqual(leaks, refLeaks) {
			t.Errorf("round %d: leaks diverge (%d vs %d)", round, len(leaks), len(refLeaks))
		}
		if !reflect.DeepEqual(t1, refT1) {
			t.Errorf("round %d: Table 1 analysis diverges", round)
		}
		if !reflect.DeepEqual(t2, refT2) {
			t.Errorf("round %d: Table 2 classification diverges", round)
		}
		if !reflect.DeepEqual(t4, refT4) {
			t.Errorf("round %d: Table 4 blocklist evaluation diverges", round)
		}
	}
}
