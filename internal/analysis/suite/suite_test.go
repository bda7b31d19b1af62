package suite_test

import (
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"piileak/internal/analysis"
	"piileak/internal/analysis/suite"
)

// TestRepoIsLintClean is the acceptance gate: the shipped tree must
// carry zero findings, with every deliberate exception annotated. It
// runs the pass `make lint` runs, so a failure here prints the same
// file:line diagnostics.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every package in the module")
	}
	g, err := analysis.LoadGraph(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, _, err := g.Run(suite.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// deadExportExemptions names the exported package-level identifiers
// under internal/ that no non-test code uses but that stay, each with
// its reason.
var deadExportExemptions = map[string]string{
	"piileak/internal/blocklist.NewEngine":               "builds the engine whose Match FuzzMatchAgreesWithRegexp and BenchmarkEngineMatch pin",
	"piileak/internal/countermeasure.EvaluateBlocklists": "the full-dataset Table 4 oracle of the torture and stream tests",
	"piileak/internal/psl.PublicSuffix":                  "the subject of FuzzPublicSuffix",
	"piileak/internal/webgen.MustGenerate":               "the ecosystem fixture constructor of 16 test files",
}

// TestNoDeadExports keeps unused surface from coming back: every
// exported package-level func, type, var and const under internal/
// must be used by a non-test file of the module or of the benchmark
// harness (bench/), or be named in deadExportExemptions. internal/
// analysis is out of scope, since its testdata loader and runner serve
// its own tests; so are methods, whose use interface satisfaction
// hides from a by-name scan.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every package in the module and in bench/")
	}
	// bench/ sees the module through export data, so a use is keyed by
	// package path and name rather than by object identity.
	used := map[string]bool{}
	declared := map[string]bool{}
	var exported []string
	scan := &analysis.Analyzer{
		Name: "deadexports",
		Doc:  "records the package-level identifiers each package uses and declares",
		Run: func(pass *analysis.Pass) error {
			for _, obj := range pass.TypesInfo.Uses {
				if obj.Pkg() != nil && obj.Pkg().Scope().Lookup(obj.Name()) == obj {
					used[obj.Pkg().Path()+"."+obj.Name()] = true
				}
			}
			if !strings.HasPrefix(pass.PkgPath, "piileak/internal/") ||
				pass.PkgPath == "piileak/internal/analysis" ||
				strings.HasPrefix(pass.PkgPath, "piileak/internal/analysis/") {
				return nil
			}
			for _, name := range pass.Pkg.Scope().Names() {
				key := pass.PkgPath + "." + name
				declared[key] = true
				if token.IsExported(name) && deadExportExemptions[key] == "" {
					exported = append(exported, key)
				}
			}
			return nil
		},
	}
	root := moduleRoot(t)
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		g, err := analysis.LoadGraph(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.Run([]*analysis.Analyzer{scan}); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range exported {
		if !used[key] {
			t.Errorf("%s is exported but no non-test code uses it: delete it, move it into a _test.go file, or exempt it with a reason", key)
		}
	}
	for key := range deadExportExemptions {
		if !declared[key] || used[key] {
			t.Errorf("exemption %s is stale: the identifier is gone or has a non-test use", key)
		}
	}
}

// TestPiilintBinary builds cmd/piilint and checks both verdicts: exit 0
// over this repo, and a file:line detrand diagnostic with exit 1 over a
// scratch module seeded with a time.Now call.
func TestPiilintBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the piilint binary")
	}
	root := moduleRoot(t)
	bin := filepath.Join(t.TempDir(), "piilint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/piilint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building piilint: %v\n%s", err, out)
	}

	clean := exec.Command(bin, "./...")
	clean.Dir = root
	if out, err := clean.CombinedOutput(); err != nil {
		t.Fatalf("piilint over the repo should exit clean, got %v:\n%s", err, out)
	}

	seeded := t.TempDir()
	writeFile(t, filepath.Join(seeded, "go.mod"), "module seed\n\ngo 1.22\n")
	writeFile(t, filepath.Join(seeded, "seed.go"), `package seed

import "time"

// Stamp is the canonical determinism bug piilint exists to catch.
func Stamp() int64 { return time.Now().UnixNano() }
`)
	dirty := exec.Command(bin, "./...")
	dirty.Dir = seeded
	out, err := dirty.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("piilint over the seeded module: want exit 1, got %v:\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "seed.go:6") || !strings.Contains(text, "detrand") {
		t.Fatalf("diagnostic should name seed.go:6 and detrand:\n%s", text)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := analysis.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
