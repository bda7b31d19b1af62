package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os/exec"
	"strings"
)

// A GraphPackage is one package to analyze: metadata only, since
// parsing and type-checking happen in Run, one package at a time.
type GraphPackage struct {
	PkgPath string
	Dir     string
	GoFiles []string // file names in Dir, go list order
}

// A Graph is the matched packages in dependency order plus the
// export-data index their type-checks import through.
type Graph struct {
	Packages []*GraphPackage // every dependency before its importers
	exports  map[string]string
}

// listPackage is the subset of `go list -json` output LoadGraph reads.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// LoadGraph resolves patterns (e.g. "./...") with the go tool and
// returns the matched packages in the order `go list -deps` prints
// them, with export data recorded for the full dependency closure.
// That order is a depth-first post-order: a package is listed only
// after all of its dependencies, so Run can hand every package the
// facts of everything it imports. dir is the go tool's working
// directory; "" means the current directory.
//
// Only non-test GoFiles are analyzed: test files deliberately exercise
// nondeterminism (fault injection, timing) and are not part of the
// shipped pipeline the analyzers guard.
func LoadGraph(dir string, patterns ...string) (*Graph, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}

	g := &Graph{exports: map[string]string{}}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			g.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			g.Packages = append(g.Packages, &GraphPackage{PkgPath: p.ImportPath, Dir: p.Dir, GoFiles: p.GoFiles})
		}
	}
	return g, nil
}

// Run analyzes the packages in graph order: each one is parsed,
// type-checked against export data and analyzed with the facts of
// every package before it, then dropped. It returns the findings in
// the order SortFindings gives and the number of diagnostics that
// //lint:allow directives suppressed.
func (g *Graph) Run(analyzers []*Analyzer) ([]Finding, int, error) {
	fset := token.NewFileSet()
	imp := exportImporter(fset, g.exports)
	facts := FactReader{}
	var findings []Finding
	suppressed := 0
	for _, node := range g.Packages {
		syntax, err := parseFiles(fset, node.Dir, node.GoFiles)
		if err != nil {
			return nil, 0, err
		}
		pkg, err := checkPackage(fset, imp, node.PkgPath, syntax)
		if err != nil {
			return nil, 0, err
		}
		res, err := analyzePackage(pkg, analyzers, facts)
		if err != nil {
			return nil, 0, err
		}
		facts[node.PkgPath] = res.Facts
		findings = append(findings, res.Findings...)
		suppressed += res.Suppressed
	}
	SortFindings(findings)
	return findings, suppressed, nil
}
