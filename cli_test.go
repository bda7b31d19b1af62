package piileak_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"piileak"
	"piileak/internal/obs"
)

// buildBinary builds the main package at pkg (a path relative to the
// repository root) into dir/name.
func buildBinary(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// output runs cmd and returns its stdout, failing the test (with the
// command's stderr) on a non-zero exit.
func output(t *testing.T, cmd *exec.Cmd) string {
	t.Helper()
	out, err := cmd.Output()
	if err != nil {
		stderr := ""
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = string(ee.Stderr)
		}
		t.Fatalf("%s %v: %v\n%s", filepath.Base(cmd.Path), cmd.Args[1:], err, stderr)
	}
	return string(out)
}

// buildTools builds the named commands into dir and returns a runner
// that executes one of them and returns its stdout, failing the test
// (with the tool's stderr) on a non-zero exit.
func buildTools(t *testing.T, dir string, tools ...string) func(tool string, args ...string) string {
	t.Helper()
	for _, tool := range tools {
		buildBinary(t, dir, tool, "./cmd/"+tool)
	}
	return func(tool string, args ...string) string {
		t.Helper()
		return output(t, exec.Command(filepath.Join(dir, tool), args...))
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

	// piiblock's defaults are the study's own lists over seed 2021, so
	// its table is the study's Table 4.
	ref, err := piileak.NewStudy(piileak.SmallConfig(2021))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	t4, err := ref.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if block := run("piiblock", "-small"); block != t4+"\n" {
		t.Errorf("piiblock -small output differs from Study.Table4 for SmallConfig(2021):\n%s\n----\n%s", block, t4)
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

// TestExamplesOutput builds each example, runs it in a fresh directory
// and compares its stdout with testdata/examples/<name>.txt. Every
// example is deterministic, so a change to the run path that moves what
// a study exposes — a dataset that silently lost its records, say —
// shows here.
func TestExamplesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	for _, name := range []string{"blocklist-tuning", "browser-compare", "pcap-export", "quickstart", "tracker-audit"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(buildBinary(t, dir, name, "./examples/"+name))
			cmd.Dir = t.TempDir()
			if got := output(t, cmd); got != string(want) {
				t.Errorf("stdout differs from testdata/examples/%s.txt:\n%s\n----\n%s", name, got, want)
			}
		})
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
		CrawlWorkers: 2, DetectWorkers: 2, Shards: 2, Shard: "0/2",
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
