package piileak_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"piileak/internal/obs"
)

// buildTools builds the named commands into dir and returns a runner
// that executes one of them and returns its stdout, failing the test
// (with the tool's stderr) on a non-zero exit.
func buildTools(t *testing.T, dir string, tools ...string) func(tool string, args ...string) string {
	t.Helper()
	for _, tool := range tools {
		bin := filepath.Join(dir, tool)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	return func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, tool), args...)
		out, err := cmd.Output()
		if err != nil {
			stderr := ""
			if ee, ok := err.(*exec.ExitError); ok {
				stderr = string(ee.Stderr)
			}
			t.Fatalf("%s %v: %v\n%s", tool, args, err, stderr)
		}
		return string(out)
	}
}

// TestCLIToolsPipeline builds every command and drives the documented
// pipeline end to end: crawl → detect/track/pcap, plus the standalone
// audit tools. Every binary path to the leak list — piidetect over a
// dataset, and a supervised sharded run whose workers are re-execed
// piicrawl processes — must write the same bytes as piicrawl -stream.
func TestCLIToolsPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	run := buildTools(t, dir, "piicrawl", "piidetect", "piitrack", "piipolicy", "piiguard", "piiblock", "piipcap", "piirepro")
	sameBytes := func(want, got, what string) {
		t.Helper()
		w, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(got)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) == 0 || !bytes.Equal(w, g) {
			t.Errorf("%s: %d bytes differ from the %d-byte piicrawl -stream leak list", what, len(g), len(w))
		}
	}

	ds := filepath.Join(dir, "ds.json.gz")
	run("piicrawl", "-small", "-seed", "7", "-funnel", "-o", ds)
	if fi, err := os.Stat(ds); err != nil || fi.Size() == 0 {
		t.Fatalf("dataset not written: %v", err)
	}
	streamed := filepath.Join(dir, "streamed-leaks.json")
	run("piicrawl", "-small", "-seed", "7", "-stream", "-o", streamed)

	detectedLeaks := filepath.Join(dir, "detected-leaks.json")
	detect := run("piidetect", "-i", ds, "-leaks", detectedLeaks)
	if !strings.Contains(detect, "Table 1a") || !strings.Contains(detect, "facebook.com") {
		t.Errorf("piidetect output unexpected:\n%s", detect[:min(400, len(detect))])
	}
	sameBytes(streamed, detectedLeaks, "piidetect -leaks")

	sharded := filepath.Join(dir, "sharded-leaks.json")
	run("piicrawl", "-small", "-seed", "7", "-shards", "2", "-supervise", "-reexec",
		"-shard-dir", filepath.Join(dir, "shards"), "-o", sharded)
	sameBytes(streamed, sharded, "piicrawl -supervise -reexec")

	track := run("piitrack", "-i", ds)
	if !strings.Contains(track, "Table 2") || !strings.Contains(track, "udff[em]") {
		t.Errorf("piitrack output unexpected:\n%s", track[:min(400, len(track))])
	}

	pcapPath := filepath.Join(dir, "crawl.pcap")
	run("piipcap", "-i", ds, "-o", pcapPath)
	if fi, err := os.Stat(pcapPath); err != nil || fi.Size() < 1000 {
		t.Fatalf("pcap not written: %v", err)
	}

	policy := run("piipolicy", "-small")
	if !strings.Contains(policy, "Table 3") {
		t.Errorf("piipolicy output unexpected:\n%s", policy)
	}

	guard := run("piiguard", "-small")
	if !strings.Contains(guard, "Brave") || !strings.Contains(guard, "Firefox") {
		t.Errorf("piiguard output unexpected:\n%s", guard)
	}

	block := run("piiblock", "-small")
	if !strings.Contains(block, "EasyPrivacy") {
		t.Errorf("piiblock output unexpected:\n%s", block)
	}

	repro := run("piirepro", "-small", "-experiments", "E0,E8")
	if !strings.Contains(repro, "E0") || !strings.Contains(repro, "Table 3") {
		t.Errorf("piirepro output unexpected:\n%s", repro[:min(400, len(repro))])
	}

	jsonOut := run("piirepro", "-small", "-json")
	if !strings.Contains(jsonOut, `"headline"`) {
		t.Errorf("piirepro -json output unexpected")
	}
}

// TestShardWorkerManifest runs one shard worker the way the
// supervisor's re-exec does and pins its manifest's run block: the
// worker's shard scope plus the fault seed and detect parallelism a
// supervised run of the same flags records.
func TestShardWorkerManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	run := buildTools(t, dir, "piicrawl")
	metrics := filepath.Join(dir, "metrics.json")
	run("piicrawl", "-small", "-seed", "7", "-shard", "0/2", "-shard-dir", filepath.Join(dir, "shards"),
		"-faults", "0.05", "-fault-seed", "9", "-workers", "2", "-detect-workers", "2", "-metrics", metrics)

	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Manifest obs.Manifest `json:"manifest"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	want := obs.RunInfo{
		EcoSeed: 7, FaultSeed: 9, Browser: "Firefox 88", Sites: 30,
		CrawlWorkers: 2, DetectWorkers: 2, Streamed: true, Shards: 2, Shard: "0/2",
	}
	if m.Manifest.Run != want {
		t.Errorf("worker manifest run = %+v, want %+v", m.Manifest.Run, want)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
