package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// rootIdent walks selector/index/star/paren chains down to the base
// identifier, or returns nil for expressions rooted elsewhere (calls,
// literals, slice expressions).
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether the variable at the root of expr is
// declared outside the [lo, hi) source range (so mutations to it escape
// the range). Expressions with no identifiable root variable report false.
func declaredOutside(pass *Pass, expr ast.Expr, lo, hi token.Pos) bool {
	id := rootIdent(expr)
	if id == nil {
		return false
	}
	obj := pass.ObjectOf(id)
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	return obj.Pos() < lo || obj.Pos() >= hi
}

// calleeFunc resolves the package-level function a call or selector refers
// to, or nil for methods, builtins, and locals.
func calleeFunc(pass *Pass, sel *ast.SelectorExpr) *types.Func {
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// isBuiltin reports whether the call expression invokes the named builtin.
func isBuiltin(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.ObjectOf(id).(*types.Builtin)
	return ok
}

// basicInfo returns the types.BasicInfo of expr's underlying basic type,
// or 0 for non-basic types.
func basicInfo(pass *Pass, expr ast.Expr) types.BasicInfo {
	t := pass.TypeOf(expr)
	if t == nil {
		return 0
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	return b.Info()
}
