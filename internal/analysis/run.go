package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one resolved diagnostic: position materialized, allow
// directives already applied.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// A PackageResult is the complete analysis output of one package: the
// surviving findings (sorted), the number of diagnostics an allow
// directive suppressed, and the exported fact set.
type PackageResult struct {
	Findings   []Finding
	Suppressed int
	Facts      *FactSet
}

// analyzePackage applies every analyzer to one package, with deps
// supplying the fact sets of the package's dependencies. Findings are
// filtered through the //lint:allow index and sorted.
func analyzePackage(pkg *Package, analyzers []*Analyzer, deps FactReader) (*PackageResult, error) {
	res := &PackageResult{Facts: &FactSet{m: map[factKey][]byte{}}}
	idx := buildAllowIndex(pkg.Fset, pkg.Syntax)
	for _, d := range idx.malformed {
		res.Findings = append(res.Findings, Finding{
			Analyzer: "allow",
			Pos:      pkg.Fset.Position(d.pos),
			Message:  "lint:allow directive needs an analyzer name and a reason: //lint:allow <analyzer> <why this is safe>",
		})
	}
	allowed := func(name string, pos token.Pos) bool {
		return idx.suppressed(name, pkg.Fset.Position(pos))
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			PkgPath:   pkg.PkgPath,
			TypesInfo: pkg.TypesInfo,
			facts:     res.Facts,
			deps:      deps,
			allowed:   allowed,
		}
		pass.report = func(d Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if idx.suppressed(a.Name, pos) {
				res.Suppressed++
				return
			}
			res.Findings = append(res.Findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	SortFindings(res.Findings)
	return res, nil
}

// RunPackages applies every analyzer to every package in slice order,
// handing each package the facts of every package before it, so
// callers pass dependencies first. It returns per-package results,
// facts included: the form analysistest needs for its testdata
// packages, which `go list` cannot see and Graph.Run therefore cannot
// load.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]*PackageResult, error) {
	deps := FactReader{}
	var results []*PackageResult
	for _, pkg := range pkgs {
		res, err := analyzePackage(pkg, analyzers, deps)
		if err != nil {
			return nil, err
		}
		deps[pkg.PkgPath] = res.Facts
		results = append(results, res)
	}
	return results, nil
}

// SortFindings orders findings by (file, line, column, analyzer,
// message): the one order piilint prints and tests compare.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
