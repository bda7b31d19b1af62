package piileak_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"piileak"
	"piileak/internal/obs"
	"piileak/internal/serve"
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

// TestSupervisedResumeRefusesOtherBrowser kills nothing but leaves what
// killed workers leave: each shard's checkpoint, its header and first 10
// site lines. A -resume under another browser must fail before any
// worker starts, naming the mismatch and writing no output; a -resume
// under the same flags must finish to the -stream run's leak bytes.
func TestSupervisedResumeRefusesOtherBrowser(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	run := buildTools(t, dir, "piicrawl")
	shards := killedShardDir(t, run, dir)

	brave := filepath.Join(dir, "brave.json")
	cmd := exec.Command(filepath.Join(dir, "piicrawl"), "-small", "-seed", "7", "-shards", "2", "-supervise", "-resume",
		"-browser", "brave", "-shard-dir", shards, "-o", brave)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(stderr.String(), "does not match this study") {
		t.Errorf("Brave resume of Firefox checkpoints: exit %v, stderr %q; want exit 1 naming the mismatch", err, stderr.String())
	}
	if _, err := os.Stat(brave); !os.IsNotExist(err) {
		t.Errorf("refused resume wrote %s (stat: %v)", brave, err)
	}

	streamed, resumed := filepath.Join(dir, "streamed.json"), filepath.Join(dir, "resumed.json")
	run("piicrawl", "-small", "-seed", "7", "-stream", "-o", streamed)
	run("piicrawl", "-small", "-seed", "7", "-shards", "2", "-supervise", "-resume", "-shard-dir", shards, "-o", resumed)
	want, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(resumed); err != nil || len(want) == 0 || !bytes.Equal(got, want) {
		t.Errorf("resumed leak list (%d bytes, err %v) differs from the %d-byte -stream one", len(got), err, len(want))
	}
}

// killedShardDir runs `piicrawl -small -seed 7 -shards 2 -supervise`
// in dir/shards and leaves there what killed workers leave: each shard's
// checkpoint, the header and first 10 site lines of its result. It
// returns the shard directory.
func killedShardDir(t *testing.T, run func(tool string, args ...string) string, dir string) string {
	t.Helper()
	shards := filepath.Join(dir, "shards")
	run("piicrawl", "-small", "-seed", "7", "-shards", "2", "-supervise", "-shard-dir", shards)
	for s := 0; s < 2; s++ {
		result := filepath.Join(shards, fmt.Sprintf("shard-%d-of-2.jsonl", s))
		data, err := os.ReadFile(result)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		if err := os.WriteFile(filepath.Join(shards, fmt.Sprintf("ckpt-%d-of-2", s)), bytes.Join(lines[:11], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(result); err != nil {
			t.Fatal(err)
		}
	}
	return shards
}

// TestCheckpointRefusalAdvice: a resume under -browser brave refuses a
// Firefox checkpoint, naming the file, with advice the refused command
// can follow. A shard worker always resumes its checkpoint, so it says
// to delete the file or use a fresh -shard-dir; `-checkpoint F -resume`
// says to re-run without resuming. Neither gives the other's advice.
func TestCheckpointRefusalAdvice(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	run := buildTools(t, dir, "piicrawl")
	shards := killedShardDir(t, run, dir)
	ckpt := filepath.Join(dir, "stream.ckpt")
	run("piicrawl", "-small", "-seed", "7", "-stream", "-checkpoint", ckpt, "-o", filepath.Join(dir, "leaks.json"))

	const worker, resume = "delete it or use a fresh -shard-dir", "re-run without resuming to replace it"
	for _, tc := range []struct {
		name, path, advice, not string
		args                    []string
	}{
		{"shard worker", filepath.Join(shards, "ckpt-0-of-2"), worker, resume, []string{"-shard", "0/2", "-shard-dir", shards}},
		{"-checkpoint -resume", ckpt, resume, worker, []string{"-stream", "-checkpoint", ckpt, "-resume", "-o", filepath.Join(dir, "brave.json")}},
	} {
		cmd := exec.Command(filepath.Join(dir, "piicrawl"), append([]string{"-small", "-seed", "7", "-browser", "brave"}, tc.args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		msg := stderr.String()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(msg, tc.path) || !strings.Contains(msg, tc.advice) || strings.Contains(msg, tc.not) {
			t.Errorf("%s: exit %v, stderr %q; want exit 1 naming %s and saying %q", tc.name, err, msg, tc.path, tc.advice)
		}
	}
}

// TestEntryPointsShareVerdicts submits each refused input to every
// entry point: piicrawl in dataset and -stream mode, piirepro, and a
// piiserve job spec. One validator judges them all, so each must refuse
// with the same message.
func TestEntryPointsShareVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	buildTools(t, dir, "piicrawl", "piirepro")
	for _, c := range []struct {
		flags []string
		spec  serve.Spec
		want  string
	}{
		{[]string{"-retries", "-1"}, serve.Spec{Retries: -1}, "-retries -1 is negative"},
		{[]string{"-site-timeout", "-5s"}, serve.Spec{SiteTimeout: "-5s"}, "-site-timeout -5s is negative"},
		{[]string{"-workers", "-2"}, serve.Spec{Workers: -2}, "-workers -2 is negative"},
		{[]string{"-browser", "netscape"}, serve.Spec{Browser: "netscape"}, `unknown browser "netscape"`},
		{[]string{"-faults", "1.5"}, serve.Spec{Faults: 1.5}, "-faults 1.5 out of range"},
		{[]string{"-only", "willowlane.jp, "}, serve.Spec{Only: []string{"willowlane.jp", " "}}, `-only "willowlane.jp, " names an empty site domain`},
	} {
		if err := c.spec.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %+v: Validate() = %v, want %q", c.spec, err, c.want)
		}
		for _, argv := range [][]string{
			append([]string{"piicrawl", "-small"}, c.flags...),
			append([]string{"piicrawl", "-small", "-stream"}, c.flags...),
			append([]string{"piirepro", "-small"}, c.flags...),
		} {
			cmd := exec.Command(filepath.Join(dir, argv[0]), argv[1:]...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(stderr.String(), c.want) {
				t.Errorf("%v: exit %v, stderr %q; want exit 1 naming %q", argv, err, stderr.String(), c.want)
			}
		}
	}
}

// refused runs argv (a tool built in dir, then its flags) and checks
// that it exits 1 with a stderr naming want.
func refused(t *testing.T, dir string, want string, argv ...string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, argv[0]), argv[1:]...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(stderr.String(), want) {
		t.Errorf("%v: exit %v, stderr %q; want exit 1 naming %q", argv, err, stderr.String(), want)
	}
}

// TestPiireproRefusesShardFlags: piirepro shares piicrawl's flags but
// not its sharded runtime, so a sharded piirepro must refuse and name
// piicrawl instead of running the study unsharded and leaving
// -shard-dir uncreated.
func TestPiireproRefusesShardFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	buildTools(t, dir, "piirepro")
	shards := filepath.Join(dir, "shards")
	refused(t, dir, "piicrawl -shards K -supervise", "piirepro", "-small", "-seed", "7", "-shards", "2", "-supervise", "-shard-dir", shards, "-experiments", "E1")
	refused(t, dir, "piicrawl -shards K -supervise", "piirepro", "-small", "-seed", "7", "-shard", "0/2", "-shard-dir", shards)
	if _, err := os.Stat(shards); !os.IsNotExist(err) {
		t.Errorf("refused piirepro created %s (stat: %v)", shards, err)
	}
}

// TestShardWorkerRefusesOutputFlags: a -shard worker writes only its
// sealed result, so -o and -funnel would do nothing; it must refuse
// them before it crawls, writing neither the output nor the shard
// directory.
func TestShardWorkerRefusesOutputFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	buildTools(t, dir, "piicrawl")
	shards, out := filepath.Join(dir, "shards"), filepath.Join(dir, "out.json")
	worker := []string{"piicrawl", "-small", "-seed", "7", "-shard", "0/2", "-shard-dir", shards}
	refused(t, dir, "-o and -funnel belong to the -supervise run", append(worker, "-o", out)...)
	refused(t, dir, "-o and -funnel belong to the -supervise run", append(worker, "-funnel")...)
	for _, path := range []string{shards, out} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("refused worker created %s (stat: %v)", path, err)
		}
	}
}

// TestSupervisedFunnel: -supervise -funnel prints the merged dataset's
// funnel, and it is the bare crawl's: the same site outcomes, records
// and mail counts, with no capture high-water mark.
func TestSupervisedFunnel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	buildTools(t, dir, "piicrawl")
	funnel := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, "piicrawl"), append([]string{"-small", "-seed", "7", "-funnel", "-o", os.DevNull}, args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("piicrawl %v: %v\n%s", args, err, stderr.String())
		}
		var lines []string
		for _, line := range strings.Split(stderr.String(), "\n") {
			if strings.HasPrefix(line, "sites: ") || strings.HasPrefix(line, "records: ") {
				lines = append(lines, line)
			}
		}
		return strings.Join(lines, "\n")
	}
	want := funnel()
	if got := funnel("-shards", "2", "-supervise", "-shard-dir", filepath.Join(dir, "shards")); got != want || want == "" {
		t.Errorf("-supervise -funnel printed\n%s\nwant the bare crawl's\n%s", got, want)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
