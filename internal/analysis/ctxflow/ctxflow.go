// Package ctxflow enforces the crash-only runtime's context
// discipline (DESIGN.md §9): cancellation must reach every blocking
// call, so library code may not mint detached contexts, and a function
// that holds a ctx must hand it to every callee capable of taking one.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"piileak/internal/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "forbids context.Background/TODO outside package main and, in " +
		"functions that hold a ctx, flags time.Sleep and calls to " +
		"functions whose Context-taking variant (XContext) is ignored; " +
		"the crash-only shutdown depends on cancellation reaching every " +
		"blocking call",
	Run: run,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		nilGuarded := collectNilGuards(pass, f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body, hasCtxParam(pass, fd.Type), isMain, fd.Name.Name, nilGuarded)
		}
	}
	return nil
}

// collectNilGuards marks context.Background/TODO calls inside the
// nil-default idiom — `if ctx == nil { ctx = context.Background() }` —
// which keeps a ctx-optional entry point honest rather than detaching
// from a caller who did supply one.
func collectNilGuards(pass *analysis.Pass, f *ast.File) map[*ast.CallExpr]bool {
	guarded := map[*ast.CallExpr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			return true
		}
		var checked ast.Expr
		switch {
		case isNilIdent(cond.Y):
			checked = cond.X
		case isNilIdent(cond.X):
			checked = cond.Y
		default:
			return true
		}
		if !isCtxType(pass.TypesInfo.TypeOf(checked)) {
			return true
		}
		for _, stmt := range ifs.Body.List {
			as, ok := stmt.(*ast.AssignStmt)
			if !ok {
				continue
			}
			for _, rhs := range as.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok &&
					analysis.IsPkgCall(pass.TypesInfo, call, "context", "Background", "TODO") {
					guarded[call] = true
				}
			}
		}
		return true
	})
	return guarded
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// checkFunc walks one function body. hasCtx reports whether a
// context.Context is in scope (own parameter or captured from an
// enclosing function); nested literals inherit it. self is the
// enclosing declared function's name, so XContext implementing itself
// in terms of X is not told to call XContext.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, hasCtx, isMain bool, self string, nilGuarded map[*ast.CallExpr]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFunc(pass, n.Body, hasCtx || hasCtxParam(pass, n.Type), isMain, self, nilGuarded)
			return false
		case *ast.CallExpr:
			checkCall(pass, n, hasCtx, isMain, self, nilGuarded)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, hasCtx, isMain bool, self string, nilGuarded map[*ast.CallExpr]bool) {
	info := pass.TypesInfo
	if analysis.IsPkgCall(info, call, "context", "Background", "TODO") {
		if !isMain && !nilGuarded[call] {
			fn := analysis.Callee(info, call)
			pass.Reportf(call.Pos(),
				"context.%s creates a detached context in a library package; accept and thread the "+
					"caller's ctx so cancellation reaches every blocking call (crash-only shutdown, DESIGN.md §9)",
				fn.Name())
		}
		return
	}
	if !hasCtx {
		return
	}
	if analysis.IsPkgCall(info, call, "time", "Sleep") {
		pass.Reportf(call.Pos(),
			"time.Sleep ignores the caller's ctx; use the injected resilience.Clock's SleepContext "+
				"so shutdown cancels the wait")
		return
	}
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if variant := ctxVariant(fn); variant != nil && variant.Name() != self {
		pass.Reportf(call.Pos(),
			"%s has a context-capable variant %s; the caller holds a ctx and must pass it so "+
				"cancellation propagates", fn.Name(), variant.Name())
	}
}

// hasCtxParam reports whether the function type declares a
// context.Context parameter.
func hasCtxParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isCtxType(pass.TypesInfo.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// sigHasCtx reports whether any parameter of sig is a context.Context.
func sigHasCtx(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// ctxVariant finds fn's context-taking sibling: for a package-level
// function F without a ctx param, a function FContext in the same
// package that takes one; for a method, a method on the same receiver
// type. Returns nil when fn already takes a ctx or no variant exists.
func ctxVariant(fn *types.Func) *types.Func {
	if fn.Pkg() == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sigHasCtx(sig) {
		return nil
	}
	name := fn.Name() + "Context"
	if sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Name() != name {
				continue
			}
			if ms, ok := m.Type().(*types.Signature); ok && sigHasCtx(ms) {
				return m
			}
		}
		return nil
	}
	v, ok := fn.Pkg().Scope().Lookup(name).(*types.Func)
	if !ok {
		return nil
	}
	if vs, ok := v.Type().(*types.Signature); ok && sigHasCtx(vs) {
		return v
	}
	return nil
}
