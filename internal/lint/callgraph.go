package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the interprocedural backbone of the lint suite: a static
// call graph over the analyzed packages (DESIGN.md §17). Resolution is
// CHA-style (class-hierarchy analysis): a static call has exactly its named
// callee; an interface method call targets the matching method of *every*
// analyzed concrete type that implements the interface; a call through a
// plain function value (field, variable, parameter) has no resolvable target
// and is surfaced to analyzers as a dynamic site. Callees whose bodies live
// outside the analyzed packages (the standard library) appear as targets
// without nodes; the hotalloc analyzer judges those through its summary
// table.
//
// Soundness limits, by construction:
//   - CHA only sees types of the packages handed to Check. Linting a package
//     subset can therefore miss implementations (and report calls into
//     unanalyzed module code conservatively); `make lint` always loads ./...
//   - Function values are never resolved, even when only one function is
//     ever assigned; such sites are reported, not silently trusted.
//   - Reflection and linkname tricks are invisible (the module uses neither).

// SiteKind classifies how a call site's callee is resolved.
type SiteKind uint8

const (
	// SiteStatic is a direct call to a named function or concrete method.
	SiteStatic SiteKind = iota
	// SiteInterface is a method call through an interface value; Targets
	// holds the CHA-resolved implementations among analyzed types.
	SiteInterface
	// SiteDynamic is a call through a function value (variable, field,
	// parameter, method value); it has no resolvable targets.
	SiteDynamic
)

// CallSite is one call expression inside a function body (including bodies
// of nested function literals, which execute as part of — or on behalf of —
// their enclosing function).
type CallSite struct {
	// Call is the call expression.
	Call *ast.CallExpr
	// Kind classifies the resolution.
	Kind SiteKind
	// Targets are the resolved callees, sorted by full name. Static sites
	// have exactly one; interface sites have the CHA set (possibly empty);
	// dynamic sites have none.
	Targets []*types.Func
	// Iface is the interface method called at a SiteInterface site (the
	// abstract *types.Func, e.g. (io.ReaderAt).ReadAt), nil otherwise.
	Iface *types.Func
	// Label describes the callee for diagnostics ("(*Cache).touch", the
	// expression text of a dynamic callee, ...).
	Label string
	// Cold reports that the site sits on a failure-exit path (see
	// coldRanges) and so runs at most once per invocation, not per element.
	Cold bool
}

// CallNode is one function with a body in the analyzed packages.
type CallNode struct {
	// Fn is the function object (the canonical node key).
	Fn *types.Func
	// Decl is the syntax, Pkg the analyzed package holding it.
	Decl *ast.FuncDecl
	Pkg  *Package
	// Hot reports a //lint:hot annotation on the declaration.
	Hot bool
	// Sites are the call sites of the body in source order.
	Sites []*CallSite
	// cold are the failure-exit source ranges of the body.
	cold []posRange
}

// Name returns the function's display name — "pkg-local" for plain
// functions, "(*Recv).Method" for methods — matching the names used in
// diagnostic chains.
func (n *CallNode) Name() string { return displayName(n.Fn) }

// ColdAt reports whether pos lies on one of the node's failure-exit paths.
func (n *CallNode) ColdAt(pos token.Pos) bool {
	for _, r := range n.cold {
		if pos >= r.lo && pos < r.hi {
			return true
		}
	}
	return false
}

// CallGraph is the static call graph over a set of analyzed packages.
type CallGraph struct {
	fset  *token.FileSet
	nodes map[*types.Func]*CallNode
	order []*CallNode // deterministic: package path, then file position

	// concrete holds every non-interface named type of the analyzed
	// packages, the CHA candidate set.
	concrete []types.Type
}

// Node returns the graph node for fn, or nil when fn's body is not among the
// analyzed packages.
func (g *CallGraph) Node(fn *types.Func) *CallNode { return g.nodes[fn] }

// Nodes returns every node in deterministic order. The slice is shared:
// callers must treat it as read-only.
func (g *CallGraph) Nodes() []*CallNode {
	//lint:ignore aliasret analyzers iterate the node list read-only on every query; copying it per call is pure waste
	return g.order
}

// hotDirective marks a function whose call tree must stay allocation-free.
const hotDirective = "//lint:hot"

// BuildCallGraph constructs the call graph over pkgs. Every function or
// method declared with a body becomes a node; nested function literals are
// folded into their enclosing declaration.
func BuildCallGraph(fset *token.FileSet, pkgs []*Package) *CallGraph {
	g := &CallGraph{fset: fset, nodes: make(map[*types.Func]*CallNode)}

	// Collect CHA candidates: every non-interface named type.
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if !types.IsInterface(t) {
				g.concrete = append(g.concrete, t)
			}
		}
	}

	// Create nodes, then resolve their call sites.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &CallNode{
					Fn:   fn,
					Decl: fd,
					Pkg:  pkg,
					Hot:  isHotAnnotated(fd),
					cold: coldRanges(fd.Body),
				}
				g.nodes[fn] = node
				g.order = append(g.order, node)
			}
		}
	}
	for _, node := range g.order {
		g.resolveSites(node)
	}
	return g
}

// isHotAnnotated reports whether the declaration's doc comment carries a
// //lint:hot directive.
func isHotAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotDirective || strings.HasPrefix(c.Text, hotDirective+" ") {
			return true
		}
	}
	return false
}

// resolveSites walks node's body (and nested literals) and records one
// CallSite per call expression.
func (g *CallGraph) resolveSites(node *CallNode) {
	info := node.Pkg.Info
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		site := g.resolveCall(info, call)
		if site != nil {
			site.Cold = node.ColdAt(call.Pos())
			node.Sites = append(node.Sites, site)
		}
		return true
	})
}

// resolveCall classifies one call expression, or returns nil for non-call
// shapes sharing the syntax (type conversions, builtins — the analyzers
// handle those directly).
func (g *CallGraph) resolveCall(info *types.Info, call *ast.CallExpr) *CallSite {
	fun := ast.Unparen(call.Fun)
	// Generic instantiations: unwrap f[T](...) to f.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if tv, ok := info.Types[idx.X]; ok && tv.IsValue() {
			fun = idx.X
		}
	case *ast.IndexListExpr:
		fun = idx.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := objectOf(info, f).(type) {
		case *types.Builtin, *types.TypeName, nil:
			return nil // builtin or conversion: handled by the analyzers
		case *types.Func:
			return &CallSite{Call: call, Kind: SiteStatic, Targets: []*types.Func{obj}, Label: g.NameFor(obj)}
		default:
			// A variable of function type (local, parameter, global).
			return &CallSite{Call: call, Kind: SiteDynamic, Label: f.Name}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				m, ok := sel.Obj().(*types.Func)
				if !ok {
					return nil
				}
				if types.IsInterface(sel.Recv()) {
					return &CallSite{
						Call:    call,
						Kind:    SiteInterface,
						Targets: g.implementersOf(sel.Recv(), m),
						Iface:   m,
						Label:   displayName(m),
					}
				}
				return &CallSite{Call: call, Kind: SiteStatic, Targets: []*types.Func{m}, Label: displayName(m)}
			default:
				// Method expression or func-typed field: dynamic.
				return &CallSite{Call: call, Kind: SiteDynamic, Label: types.ExprString(f)}
			}
		}
		// Qualified identifier: pkg.Func, pkg.Var, or a conversion.
		switch obj := objectOf(info, f.Sel).(type) {
		case *types.Func:
			return &CallSite{Call: call, Kind: SiteStatic, Targets: []*types.Func{obj}, Label: g.NameFor(obj)}
		case *types.TypeName, *types.Builtin, nil:
			return nil
		default:
			return &CallSite{Call: call, Kind: SiteDynamic, Label: types.ExprString(f)}
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is already folded into the
		// enclosing node's walk; no edge needed.
		return nil
	default:
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return nil // conversion like []byte(s)
		}
		return &CallSite{Call: call, Kind: SiteDynamic, Label: types.ExprString(fun)}
	}
}

// implementersOf returns the concrete methods implementing interface method
// m among the analyzed named types, sorted by full name.
func (g *CallGraph) implementersOf(iface types.Type, m *types.Func) []*types.Func {
	i, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	for _, t := range g.concrete {
		var impl types.Type
		switch {
		case types.Implements(t, i):
			impl = t
		case types.Implements(types.NewPointer(t), i):
			impl = types.NewPointer(t)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].FullName() < out[b].FullName() })
	return out
}

// objectOf returns the object an identifier denotes in info (definition or
// use), or nil.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// displayName renders a function for diagnostics: methods as
// "(*Cache).touch", plain functions by bare name.
func displayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		recv := types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" })
		if strings.HasPrefix(recv, "*") {
			return "(" + recv + ")." + fn.Name()
		}
		return recv + "." + fn.Name()
	}
	return fn.Name()
}

// NameFor renders fn for diagnostics, qualifying functions external to the
// analyzed packages with their package name ("fmt.Errorf") so call chains
// stay readable without import-path noise.
func (g *CallGraph) NameFor(fn *types.Func) string {
	name := displayName(fn)
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil &&
		g.nodes[fn] == nil && fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// posRange is a half-open source position interval.
type posRange struct{ lo, hi token.Pos }

// coldRanges returns the failure-exit ranges of a function body: blocks that
// terminate the function rather than iterate. Two shapes qualify:
//
//   - a conditional block (if/else body, switch/select clause) whose
//     statement list ends in a return or a panic — the early-exit guard
//     idiom, taken at most once per call and usually only on corrupt input;
//   - any block whose statement list ends in a panic — assertion tails.
//
// The hotalloc analyzer exempts allocations and skips call edges inside
// these ranges: a path that leaves the kernel cannot run per element. This
// is a heuristic (a conditional return CAN be the common case); the dynamic
// AllocsPerRun oracle backstops it (DESIGN.md §17).
func coldRanges(body *ast.BlockStmt) []posRange {
	var out []posRange
	addList := func(list []ast.Stmt) {
		if len(list) == 0 {
			return
		}
		out = append(out, posRange{lo: list[0].Pos(), hi: list[len(list)-1].End()})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			if terminatesExit(s.Body.List) {
				addList(s.Body.List)
			}
			if eb, ok := s.Else.(*ast.BlockStmt); ok && terminatesExit(eb.List) {
				addList(eb.List)
			}
		case *ast.CaseClause:
			if terminatesExit(s.Body) {
				addList(s.Body)
			}
		case *ast.CommClause:
			if terminatesExit(s.Body) {
				addList(s.Body)
			}
		case *ast.BlockStmt:
			if endsInPanic(s.List) {
				addList(s.List)
			}
		}
		return true
	})
	return out
}

// terminatesExit reports whether a statement list ends by leaving the
// function: a return, or a panic call.
func terminatesExit(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		return isPanicCall(last.X)
	}
	return false
}

// endsInPanic reports whether a statement list ends with a panic call.
func endsInPanic(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	es, ok := list[len(list)-1].(*ast.ExprStmt)
	return ok && isPanicCall(es.X)
}

// isPanicCall reports whether expr is a call to the panic builtin.
func isPanicCall(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
