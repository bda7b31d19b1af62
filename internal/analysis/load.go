package analysis

import (
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

// A Package is one parsed, type-checked package.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
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

// LoadDirs parses and type-checks directories of Go files that the go
// tool does not know about (analysistest testdata packages), in order.
// Imports resolve through `go list -export` run from the enclosing
// module, so testdata may import both the standard library and this
// repo's own packages; later packages may also import earlier ones by
// their package name (e.g. `import "a"` resolves to the already-checked
// testdata package a) — the shape cross-package fact tests need. All
// packages share one FileSet so positions stay comparable.
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
	syntax, err := parseFiles(fset, dir, files)
	if err != nil {
		return nil, err
	}

	var imports []string
	seen := map[string]bool{}
	for _, f := range syntax {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if path != "" && local[path] == nil && !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	var exports map[string]string
	if len(imports) > 0 {
		root, err := ModuleRoot()
		if err != nil {
			return nil, err
		}
		g, err := LoadGraph(root, imports...)
		if err != nil {
			return nil, err
		}
		exports = g.exports
	}
	imp := overrideImporter{local: local, base: exportImporter(fset, exports)}
	return checkPackage(fset, imp, syntax[0].Name.Name, syntax)
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

// parseFiles parses the named files of dir, comments included (the
// //lint:allow directives and // want expectations live in them).
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	syntax := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		syntax = append(syntax, f)
	}
	return syntax, nil
}

// checkPackage type-checks one package's files, importing through imp.
func checkPackage(fset *token.FileSet, imp types.Importer, pkgPath string, syntax []*ast.File) (*Package, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Syntax: syntax, Types: tpkg, TypesInfo: info}, nil
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
