// Package analysis is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface this repo needs: Analyzer,
// Pass, Diagnostic, a package loader built on `go list -export -deps`,
// an allowlist (`//lint:allow`) layer, and one runner that analyzes
// the packages in dependency order, so facts reach every importer.
//
// Why not the real module? The repo is intentionally stdlib-only, and
// the invariants piilint protects (byte-identical study output across
// serial/parallel/streamed/resumed runs, no persona PII in logs) are
// repo-specific anyway. The API mirrors go/analysis closely enough that
// migrating an analyzer to the upstream framework is mechanical: swap
// the import, keep the Run function.
//
// See README.md in this directory for the analyzer catalog and the
// allowlist policy.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. It must be a valid identifier.
	Name string

	// Doc is the one-paragraph help text: what the analyzer flags
	// and which invariant that protects.
	Doc string

	// FactTypes declares the Fact types this analyzer exports, as
	// zero-value pointers (e.g. []analysis.Fact{(*WallClockFact)(nil)}
	// is wrong — use &WallClockFact{}). Declaring them lets
	// analysistest decode exported facts for `// want fact:`
	// assertions and documents the analyzer's interprocedural
	// surface in -list output.
	FactTypes []Fact

	// Run applies the analyzer to one package. It reports findings
	// through pass.Report / pass.Reportf, exchanges interprocedural
	// knowledge through pass.ExportObjectFact / pass.ImportObjectFact,
	// and returns an error only for internal failures (not findings).
	Run func(pass *Pass) error
}

// A Pass is the input to an Analyzer.Run: one type-checked package, a
// sink for diagnostics, and the fact environment — the dependencies'
// exported facts (read) and this package's fact set (write).
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	report  func(Diagnostic)
	facts   *FactSet   // this package's exports (all analyzers share one set)
	deps    FactReader // dependencies' fact sets by import path
	allowed func(name string, pos token.Pos) bool
}

// Allowed reports whether a //lint:allow directive for this analyzer
// covers pos. Analyzers that derive facts from source lines (detrand's
// wall-clock taint) consult it so a vetted exception does not smear
// into every transitive caller — unless the analyzer decides severance
// is severance regardless (ctxflow).
func (p *Pass) Allowed(pos token.Pos) bool {
	if p.allowed == nil {
		return false
	}
	return p.allowed(p.Analyzer.Name, pos)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
