package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A Package is one loaded, parsed, type-checked target package.
type Package struct {
	PkgPath   string
	Dir       string
	GoFiles   []string // absolute paths, in go list order
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loaders read.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// ModuleRoot reports the directory of the enclosing module, so callers
// (tests, benchmarks) can load "./..." from anywhere inside the repo.
func ModuleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("analysis: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("analysis: not inside a module")
	}
	return filepath.Dir(gomod), nil
}

// Load resolves patterns (e.g. "./...") with the go tool, type-checks
// every matched package against compiled export data, and returns the
// targets sorted by import path. dir is the working directory for the
// go tool; "" means the current directory.
//
// Only non-test GoFiles are analyzed: test files deliberately exercise
// nondeterminism (fault injection, timing) and are not part of the
// shipped pipeline the analyzers guard.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Incomplete,Error",
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

	exports := map[string]string{}
	var targets []listPackage
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
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := checkPackage(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks a single directory of Go files that
// the go tool does not know about (an analysistest testdata package).
// Imports resolve through `go list -export` run from the enclosing
// module, so testdata may import both the standard library and this
// repo's own packages.
func LoadDir(dir string) (*Package, error) {
	pkgs, err := LoadDirs(dir)
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// LoadDirs parses and type-checks several testdata directories in
// order. Later packages may import earlier ones by their package name
// (e.g. `import "a"` resolves to the already-checked testdata package
// a) — the shape cross-package fact tests need. All packages share one
// FileSet so positions stay comparable.
func LoadDirs(dirs ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	local := map[string]*types.Package{}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := loadDirInto(fset, local, dir)
		if err != nil {
			return nil, err
		}
		local[pkg.PkgPath] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

// overrideImporter resolves import paths through already-type-checked
// testdata packages first, then falls back to gc export data.
type overrideImporter struct {
	local map[string]*types.Package
	base  types.Importer
}

func (o overrideImporter) Import(path string) (*types.Package, error) {
	if p, ok := o.local[path]; ok {
		return p, nil
	}
	return o.base.Import(path)
}

func loadDirInto(fset *token.FileSet, local map[string]*types.Package, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	sort.Strings(files)

	var syntax []*ast.File
	imports := map[string]bool{}
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		syntax = append(syntax, f)
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if path != "" && local[path] == nil {
				imports[path] = true
			}
		}
	}

	exports := map[string]string{}
	if len(imports) > 0 {
		var paths []string
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		root, err := ModuleRoot()
		if err != nil {
			return nil, err
		}
		args := append([]string{
			"list", "-export", "-deps",
			"-json=ImportPath,Export",
		}, paths...)
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("analysis: go list %s: %v\n%s",
				strings.Join(paths, " "), err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}

	pkgPath := syntax[0].Name.Name
	info := newInfo()
	conf := types.Config{Importer: overrideImporter{local: local, base: exportImporter(fset, exports)}}
	tpkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", dir, err)
	}
	abs := make([]string, len(files))
	for i, name := range files {
		abs[i] = filepath.Join(dir, name)
	}
	return &Package{
		PkgPath: pkgPath, Dir: dir, GoFiles: abs,
		Fset: fset, Syntax: syntax, Types: tpkg, TypesInfo: info,
	}, nil
}

// exportImporter returns a gc-export-data importer whose lookup is a
// map from import path to export-data file (as produced by
// `go list -export`).
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

func checkPackage(fset *token.FileSet, imp types.Importer, pkgPath, dir string, goFiles []string) (*Package, error) {
	var syntax []*ast.File
	abs := make([]string, 0, len(goFiles))
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		syntax = append(syntax, f)
		abs = append(abs, path)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath: pkgPath, Dir: dir, GoFiles: abs,
		Fset: fset, Syntax: syntax, Types: tpkg, TypesInfo: info,
	}, nil
}

// newInfo allocates a types.Info with every map the analyzers read.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
