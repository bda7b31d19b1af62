package analysis_test

import (
	"strings"
	"testing"

	"piileak/internal/analysis"
)

// TestMalformedAllowDirective: a //lint:allow with no reason is a
// finding, not a suppression — the allowlist policy is "every
// exception documents why".
func TestMalformedAllowDirective(t *testing.T) {
	findings := allowcheckFindings(t)
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 malformed-directive finding, got %d: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "allow" || f.Pos.Line != 9 || !strings.Contains(f.Message, "needs an analyzer name and a reason") {
		t.Fatalf("unexpected finding: %+v", f)
	}
}

// TestFindingString pins the file:line:col rendering tools parse.
func TestFindingString(t *testing.T) {
	findings := allowcheckFindings(t)
	s := findings[0].String()
	if !strings.Contains(s, "allowcheck.go:9:") || !strings.Contains(s, ": allow: ") {
		t.Fatalf("unexpected rendering: %s", s)
	}
}

// allowcheckFindings runs no analyzer over the allowcheck testdata
// package, so only the directive check itself can report.
func allowcheckFindings(t *testing.T) []analysis.Finding {
	t.Helper()
	pkgs, err := analysis.LoadDirs("testdata/src/allowcheck")
	if err != nil {
		t.Fatal(err)
	}
	results, err := analysis.RunPackages(pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return results[0].Findings
}
