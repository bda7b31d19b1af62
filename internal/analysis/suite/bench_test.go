package suite_test

import (
	"testing"

	"piileak/internal/analysis"
	"piileak/internal/analysis/suite"
)

// BenchmarkPiilint times the full lint pass `make lint` runs — go
// list, then parsing, type-checking against export data and all eight
// analyzers over every package in the module, in dependency order.
// `make bench` records it in BENCH_lint.json so analyzer cost rides the
// same perf trajectory as the pipeline benchmarks.
func BenchmarkPiilint(b *testing.B) {
	root, err := analysis.ModuleRoot()
	if err != nil {
		b.Fatal(err)
	}
	var packages int
	for i := 0; i < b.N; i++ {
		g, err := analysis.LoadGraph(root, "./...")
		if err != nil {
			b.Fatal(err)
		}
		findings, _, err := g.Run(suite.Analyzers())
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 0 {
			b.Fatalf("repo not lint-clean: %v", findings[0])
		}
		packages = len(g.Packages)
	}
	b.ReportMetric(float64(packages), "packages")
}
