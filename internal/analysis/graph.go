package analysis

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A GraphPackage is one analyzable node of the package DAG: metadata
// only — parsing and type-checking happen lazily (and in parallel) in
// the driver, and not at all on a warm cache hit.
type GraphPackage struct {
	PkgPath string
	Dir     string
	GoFiles []string // absolute paths, go list order
	Imports []string // in-module imports (edges into the DAG), sorted
}

// A Graph is the loaded package DAG plus the export-data index shared
// by every node's type-check. Export files are written by the go tool
// and read-only here, so concurrent type-checks share the map safely.
type Graph struct {
	Packages []*GraphPackage // sorted by import path
	exports  map[string]string
	index    map[string]*GraphPackage
}

// Package returns the node for an import path, or nil.
func (g *Graph) Package(path string) *GraphPackage { return g.index[path] }

// LoadGraph resolves patterns (e.g. "./...") with the go tool and
// returns the in-module package DAG: one node per matched package,
// edges along in-module imports, export data recorded for the full
// dependency closure. dir is the go tool's working directory; "" means
// the current directory.
//
// Only non-test GoFiles are analyzed: test files deliberately exercise
// nondeterminism (fault injection, timing) and are not part of the
// shipped pipeline the analyzers guard.
func LoadGraph(dir string, patterns ...string) (*Graph, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Imports,Export,Standard,DepOnly,Incomplete,Error",
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

	g := &Graph{exports: map[string]string{}, index: map[string]*GraphPackage{}}
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
		if p.DepOnly || p.Standard {
			continue
		}
		abs := make([]string, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			abs = append(abs, joinIfRelative(p.Dir, name))
		}
		node := &GraphPackage{PkgPath: p.ImportPath, Dir: p.Dir, GoFiles: abs, Imports: p.Imports}
		g.Packages = append(g.Packages, node)
		g.index[p.ImportPath] = node
	}
	sort.Slice(g.Packages, func(i, j int) bool { return g.Packages[i].PkgPath < g.Packages[j].PkgPath })

	// Restrict edges to in-module targets and sort them: the DAG the
	// scheduler walks, in one canonical shape.
	for _, node := range g.Packages {
		var in []string
		for _, imp := range node.Imports {
			if _, ok := g.index[imp]; ok && imp != node.PkgPath {
				in = append(in, imp)
			}
		}
		sort.Strings(in)
		node.Imports = in
	}
	return g, nil
}

// load parses and type-checks one node against export data, with its
// own FileSet — nodes share no mutable state, which is what lets the
// driver analyze independent packages concurrently.
func (g *Graph) load(node *GraphPackage) (*Package, error) {
	fset := token.NewFileSet()
	imp := exportImporter(fset, g.exports)
	return checkPackage(fset, imp, node.PkgPath, node.Dir, node.GoFiles)
}

// ContentHash digests the node's source bytes (file names and
// contents, in order) — the package-local ingredient of its cache key.
func (node *GraphPackage) ContentHash() (string, error) {
	h := sha256.New()
	for _, path := range node.GoFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", fmt.Errorf("analysis: hashing %s: %w", node.PkgPath, err)
		}
		fmt.Fprintf(h, "%s\x00%x\n", path, sha256.Sum256(data))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func joinIfRelative(dir, name string) string {
	if filepath.IsAbs(name) {
		return name
	}
	return filepath.Join(dir, name)
}
