package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDeclarationsMatchBenchmarkJSON pins BENCHMARK.json to the metric
// and workload lists the program reports.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program declares %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	var e2e, layer []struct{ Name, Unit string }
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want summary
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, summary{Q1: 2.75, Median: 5.5, Q3: 8.25, N: 10}},
		{[]float64{1, 2}, summary{Q1: 0.75, Median: 1.5, Q3: 2.25, N: 2}},
		{[]float64{3, 1, 2}, summary{Q1: 1, Median: 2, Q3: 3, N: 3}},
		{[]float64{5, 1, 4, 2, 3, 6}, summary{Q1: 1.75, Median: 3.5, Q3: 5.25, N: 6}},
	} {
		if got := summarize(tc.xs); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	b := bound{Bound: 0.1}
	for _, tc := range []struct {
		name      string
		base, cur []float64
		higher    bool
		want      string
	}{
		{"unchanged", []float64{10, 10.1, 9.9}, []float64{10.2, 10.1, 10.3}, false, "unchanged"},
		{"regressed", []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, false, "regressed"},
		{"improved", []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, false, "improved"},
		{"higher is better", []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, true, "regressed"},
		{"spread wider than bound", []float64{5, 10, 15}, []float64{12, 6, 16}, false, "unresolved"},
		{"wide but every run better", []float64{10, 14, 18}, []float64{1, 4, 8}, false, "improved"},
	} {
		if _, got := verdict(tc.base, tc.cur, b, true, tc.higher); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// buildSelf compiles piibench for the end-to-end tests.
func buildSelf(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "piibench")
	out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

// metricLines indexes the "metric <workload> <name> ... <unit>" lines.
func metricLines(stdout []byte) map[[2]string]string {
	units := map[[2]string]string{}
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 8 && f[0] == "metric" {
			units[[2]string{f[1], f[2]}] = f[7]
		}
	}
	return units
}

// lastLine decodes the result object that ends standard output.
func lastLine(t *testing.T, stdout []byte) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestQuickRunEndToEnd runs every workload at -quick sizes against
// freshly built binaries and checks that every declared end-to-end
// metric is printed for every workload with its unit, that the -json
// document round-trips through -compare, and that a traced run prints
// every declared per-layer metric.
func TestQuickRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs every workload (about 30 s)")
	}
	spec := readSpec(t)
	root := repoRoot(t)
	exe := buildSelf(t)
	doc := filepath.Join(t.TempDir(), "run.json")

	cmd := exec.Command(exe, "-root", root, "-quick", "-json", doc, "-commit", "test")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("quick run: %v\n%s", err, stderr.Bytes())
	}
	units := metricLines(stdout)
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			if got, ok := units[[2]string{w.Name, m.Name}]; !ok {
				t.Errorf("%s: %s not printed", w.Name, m.Name)
			} else if got != m.Unit {
				t.Errorf("%s: %s printed in %s, declared %s", w.Name, m.Name, got, m.Unit)
			}
		}
	}
	if res := lastLine(t, stdout); !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result line: %+v", res)
	}

	out, err := exec.Command(exe, "-root", root, "-compare", doc, doc).CombinedOutput()
	if err != nil {
		t.Fatalf("-compare of a document with itself: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			if !hasVerdict(out, w.Name, m.Name, "unchanged") {
				t.Errorf("-compare: no unchanged verdict for %s %s:\n%s", w.Name, m.Name, out)
			}
		}
	}

	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	cmd = exec.Command(exe, "-root", root, "-quick", "-trace", "1", "-workload", "cold-cli", "-spans", spans)
	stderr.Reset()
	cmd.Stderr = &stderr
	stdout, err = cmd.Output()
	if err != nil {
		t.Fatalf("traced quick run: %v\n%s", err, stderr.Bytes())
	}
	units = metricLines(stdout)
	for _, m := range spec.PerLayer {
		if got, ok := units[[2]string{"cold-cli", m.Name}]; !ok || got != m.Unit {
			t.Errorf("traced: %s printed as %q (present %v), declared %s", m.Name, got, ok, m.Unit)
		}
	}
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// hasVerdict reports whether some line of out names the workload and
// metric and ends with the verdict.
func hasVerdict(out []byte, workload, metric, want string) bool {
	for _, l := range strings.Split(string(out), "\n") {
		f := strings.Fields(l)
		if len(f) > 2 && f[0] == workload && f[1] == metric && f[len(f)-1] == want {
			return true
		}
	}
	return false
}

// TestTamperedReferenceFails is the negative arm: when the references
// are corrupted, every output check must fail and the run must exit
// non-zero with correct:false.
func TestTamperedReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs a workload")
	}
	exe := buildSelf(t)
	cmd := exec.Command(exe, "-root", repoRoot(t), "-quick", "-workload", "cold-cli", "-tamper-reference")
	stdout, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("tampered run: want a non-zero exit, got %v", err)
	}
	if res := lastLine(t, stdout); res.Correct {
		t.Errorf("tampered run reported correct: %+v", res)
	}
}
