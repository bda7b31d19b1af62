package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"piileak/internal/analysis"
	"piileak/internal/analysis/detrand"
)

// scratchModule writes a three-package chain zclock <- core <- pipeline
// whose wall-clock taint crosses both edges via WallClockFact: zclock
// reads time.Now directly, and the other two (deterministic by base
// name) are flagged only because the fact propagates. zclock sorts
// after both of its dependents, so a runner that took packages by
// import path would analyze them before the fact exists.
func scratchModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("zclock/zclock.go", `package zclock

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)
	write("core/core.go", `package core

import "scratch/zclock"

func Row() int64 { return zclock.Stamp() }
`)
	write("pipeline/pipeline.go", `package pipeline

import "scratch/core"

func Emit() int64 { return core.Row() }
`)
	return dir
}

// TestRunHandsFactsToDependentsThatSortFirst pins the one lint pass's
// order: LoadGraph keeps go list's dependency order, so Run analyzes
// zclock before core and core before pipeline, and the wall-clock fact
// reaches both callers although their import paths sort first.
func TestRunHandsFactsToDependentsThatSortFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scratch module with the go tool")
	}
	g, err := analysis.LoadGraph(scratchModule(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, suppressed, err := g.Run([]*analysis.Analyzer{detrand.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ file, text string }{
		{"core.go:5", "zclock.Stamp transitively reads the wall clock"},
		{"pipeline.go:5", "core.Row transitively reads the wall clock (via zclock.Stamp)"},
		{"zclock.go:5", "time.Now"},
	}
	if len(findings) != len(want) || suppressed != 0 {
		t.Fatalf("want %d findings and none suppressed, got %d (%d suppressed):\n%v",
			len(want), len(findings), suppressed, findings)
	}
	for i, w := range want {
		if got := findings[i].String(); !strings.Contains(got, w.file) || !strings.Contains(got, w.text) {
			t.Errorf("finding %d = %s, want %s naming %q", i, got, w.file, w.text)
		}
	}
}
