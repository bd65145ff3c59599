package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc enforces the zero-allocation contract of the batched hot kernels
// (DESIGN.md §17): a function annotated //lint:hot, and everything reachable
// from it in the call graph, must not allocate. The per-access cost figures
// the repo reports (sub-ns to a few ns) hold only while these paths stay off
// the garbage collector entirely; a single append or boxed argument in a
// helper three calls down silently multiplies the cost.
//
// Flagged inside hot-reachable functions: append (backing-array growth),
// make/new, slice and map composite literals, taking the address of a
// composite literal, map assignment, string concatenation and
// string<->[]byte/[]rune conversions, go statements, capturing function
// literals (closure allocation), and interface boxing of concrete arguments
// at call sites. Calls that cannot be proven allocation-free are findings
// too: calls through function values, interface calls with no analyzed
// implementation, and calls into standard-library packages without a "safe"
// summary. Every diagnostic carries the call chain from the //lint:hot root.
//
// Failure-exit paths — conditional blocks ending in return, and any block
// ending in panic — are exempt: they run at most once per invocation, not
// per element, and that is where kernels report corrupt input. This is a
// heuristic; the AllocsPerRun == 0 tests are the dynamic backstop.
//
// A //lint:ignore hotalloc <reason> directive on a *call* line both
// suppresses the finding and prunes the traversal through that call, so one
// justified directive fences off an entire cold or contractually-safe
// subtree (e.g. the buffered fallback adapter behind a batch interface).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "functions marked //lint:hot and everything they reach must not allocate: no append growth, make/new, boxing, closures, or calls into allocating code",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	g := pass.Graph
	if g == nil {
		return
	}
	// Roots are the //lint:hot functions declared in THIS pass's package;
	// reachable helpers in other packages are scanned here too, but their
	// own roots are handled by their own pass, so no finding is duplicated
	// with an identical chain.
	var roots []*CallNode
	for _, n := range g.Nodes() {
		if n.Hot && n.Pkg == pass.Pkg {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return
	}
	ctx := &hotCtx{
		pass:       pass,
		g:          g,
		suppressed: hotallocSuppressedLines(g),
	}
	// Breadth-first from the roots: the first chain to reach a function is
	// a shortest one, which keeps diagnostics minimal.
	type entry struct {
		node  *CallNode
		chain []string
	}
	visited := make(map[*CallNode]bool)
	var queue []entry
	for _, r := range roots {
		if !visited[r] {
			visited[r] = true
			queue = append(queue, entry{r, []string{displayName(r.Fn)}})
		}
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		ctx.scanAllocs(e.node, e.chain)
		for _, site := range e.node.Sites {
			if site.Cold || ctx.cut(site.Call.Pos()) {
				continue
			}
			ctx.checkBoxing(e.node, site, e.chain)
			for _, next := range ctx.judgeSite(e.node, site, e.chain) {
				if !visited[next] {
					visited[next] = true
					queue = append(queue, entry{next, append(append([]string(nil), e.chain...), displayName(next.Fn))})
				}
			}
		}
	}
}

// HotReachable returns every call-graph node reachable from a //lint:hot
// root through hot call sites — skipping cold failure-exit ranges and
// subtrees pruned by //lint:ignore hotalloc directives — across all analyzed
// packages, in deterministic order. The searchlint -escape mode uses the
// source extents of these functions to scope the compiler's escape-analysis
// output to hot code.
func HotReachable(g *CallGraph) []*CallNode {
	suppressed := hotallocSuppressedLines(g)
	cut := func(pos token.Pos) bool {
		p := g.fset.Position(pos)
		return suppressed[p.Filename][p.Line]
	}
	visited := make(map[*CallNode]bool)
	var queue, out []*CallNode
	for _, n := range g.Nodes() {
		if n.Hot {
			visited[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		for _, site := range n.Sites {
			if site.Cold || cut(site.Call.Pos()) {
				continue
			}
			for _, fn := range site.Targets {
				if next := g.Node(fn); next != nil && !visited[next] {
					visited[next] = true
					queue = append(queue, next)
				}
			}
		}
	}
	return out
}

// hotCtx carries one hotalloc run.
type hotCtx struct {
	pass *Pass
	g    *CallGraph
	// suppressed maps file -> lines covered by a //lint:ignore hotalloc
	// directive. Report-level suppression happens in Check; this copy exists
	// so the traversal can also PRUNE through ignored call sites, and so
	// directives in *other* packages fence subtrees for every pass.
	suppressed map[string]map[int]bool
}

// cut reports whether pos sits on a line fenced by an ignore directive.
func (ctx *hotCtx) cut(pos token.Pos) bool {
	p := ctx.pass.Fset.Position(pos)
	return ctx.suppressed[p.Filename][p.Line]
}

func (ctx *hotCtx) report(pos token.Pos, chain []string, format string, args ...any) {
	if ctx.cut(pos) {
		return
	}
	ctx.pass.ReportChain(pos, chain, format, args...)
}

// hotallocSuppressedLines collects, across every package of the graph, the
// source lines covered by a //lint:ignore directive naming hotalloc (the
// directive's own line and the one below, matching suppression scope).
func hotallocSuppressedLines(g *CallGraph) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	seen := make(map[*Package]bool)
	var discard []Diagnostic
	for _, n := range g.Nodes() {
		if seen[n.Pkg] {
			continue
		}
		seen[n.Pkg] = true
		for _, f := range n.Pkg.Files {
			for _, dir := range parseIgnores(g.fset, f, &discard) {
				if !dir.analyzers["hotalloc"] {
					continue
				}
				m := out[dir.file]
				if m == nil {
					m = make(map[int]bool)
					out[dir.file] = m
				}
				m[dir.line] = true
				m[dir.line+1] = true
			}
		}
	}
	return out
}

// scanAllocs walks node's body and reports direct allocation sites outside
// cold ranges. Nested function-literal bodies are included: they execute on
// behalf of the enclosing function.
func (ctx *hotCtx) scanAllocs(node *CallNode, chain []string) {
	info := node.Pkg.Info
	// Composite literals already reported through an enclosing &lit are
	// skipped to avoid a double finding at the same expression.
	addrTaken := make(map[*ast.CompositeLit]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if node.ColdAt(x.Pos()) {
				return true
			}
			switch {
			case isBuiltinIn(info, x, "append"):
				ctx.report(x.Pos(), chain, "append may grow its backing array; preallocate capacity or justify with an ignore")
			case isBuiltinIn(info, x, "make"):
				ctx.report(x.Pos(), chain, "make allocates")
			case isBuiltinIn(info, x, "new"):
				ctx.report(x.Pos(), chain, "new allocates")
			default:
				ctx.checkConversion(info, x, chain)
			}
		case *ast.UnaryExpr:
			if x.Op != token.AND || node.ColdAt(x.Pos()) {
				return true
			}
			if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				addrTaken[lit] = true
				ctx.report(x.Pos(), chain, "taking the address of a composite literal allocates")
			}
		case *ast.CompositeLit:
			if node.ColdAt(x.Pos()) || addrTaken[x] {
				return true
			}
			if t := info.TypeOf(x); t != nil && isSliceOrMap(t) {
				ctx.report(x.Pos(), chain, "slice/map composite literal allocates")
			}
		case *ast.BinaryExpr:
			if x.Op != token.ADD || node.ColdAt(x.Pos()) {
				return true
			}
			tv, ok := info.Types[x]
			if ok && tv.Value == nil && isStringType(tv.Type) {
				ctx.report(x.Pos(), chain, "string concatenation allocates")
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok || node.ColdAt(idx.Pos()) {
					continue
				}
				if t := info.TypeOf(idx.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						ctx.report(idx.Pos(), chain, "map assignment may allocate (bucket growth)")
					}
				}
			}
		case *ast.GoStmt:
			if !node.ColdAt(x.Pos()) {
				ctx.report(x.Pos(), chain, "go statement allocates a goroutine")
			}
		case *ast.FuncLit:
			if node.ColdAt(x.Pos()) {
				return true
			}
			if v := capturedVar(info, x); v != nil {
				ctx.report(x.Pos(), chain, "function literal captures %q; the closure allocates", v.Name())
			}
		}
		return true
	})
}

// checkConversion flags string<->[]byte/[]rune conversions, which copy.
func (ctx *hotCtx) checkConversion(info *types.Info, call *ast.CallExpr, chain []string) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	dst, src := tv.Type, info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	switch {
	case isStringType(dst) && isByteOrRuneSlice(src),
		isByteOrRuneSlice(dst) && isStringType(src):
		ctx.report(call.Pos(), chain, "string/[]byte conversion allocates a copy")
	case types.IsInterface(dst) && !types.IsInterface(src) && !isPointerShaped(src):
		ctx.report(call.Pos(), chain, "conversion to interface boxes the value on the heap")
	}
}

// checkBoxing flags concrete, non-pointer-shaped arguments passed to
// interface-typed parameters: the conversion boxes the value on the heap.
// Pointer-shaped values (*T, chan, map, func, unsafe.Pointer) fit the
// interface data word; interface-to-interface conversions do not allocate.
func (ctx *hotCtx) checkBoxing(node *CallNode, site *CallSite, chain []string) {
	info := node.Pkg.Info
	call := site.Call
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || node.ColdAt(call.Pos()) {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // spread: no element conversion
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isPointerShaped(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		ctx.report(arg.Pos(), chain, "passing %s argument as %s boxes it on the heap",
			types.TypeString(at, types.RelativeTo(node.Pkg.Types)), types.TypeString(pt, types.RelativeTo(node.Pkg.Types)))
	}
}

// judgeSite reports unprovable call sites and returns the in-module callees
// the traversal should descend into.
func (ctx *hotCtx) judgeSite(node *CallNode, site *CallSite, chain []string) []*CallNode {
	switch site.Kind {
	case SiteDynamic:
		ctx.report(site.Call.Pos(), chain, "call through function value %s cannot be proven allocation-free", site.Label)
		return nil
	case SiteInterface:
		if site.Iface != nil && safeIfaceMethods[site.Iface.FullName()] {
			return nil
		}
		if len(site.Targets) == 0 {
			ctx.report(site.Call.Pos(), chain, "interface call %s has no analyzed implementation and no safe summary", site.Label)
			return nil
		}
	}
	var next []*CallNode
	for _, fn := range site.Targets {
		if n := ctx.g.Node(fn); n != nil {
			next = append(next, n)
			continue
		}
		ctx.judgeExternal(fn, site, chain)
	}
	return next
}

// judgeExternal applies the standard-library summaries to a callee whose
// body is outside the analyzed packages.
func (ctx *hotCtx) judgeExternal(fn *types.Func, site *CallSite, chain []string) {
	pkg := fn.Pkg()
	if pkg == nil {
		return // error.Error and friends from the universe scope
	}
	path := pkg.Path()
	if safeStdPkgs[path] {
		return
	}
	name := ctx.g.NameFor(fn)
	if allocStdPkgs[path] {
		ctx.report(site.Call.Pos(), chain, "calls %s, which allocates", name)
		return
	}
	ctx.report(site.Call.Pos(), chain, "calls %s, which has no allocation summary; annotate, summarize, or suppress", name)
}

// safeStdPkgs are standard-library packages whose exported functions and
// methods never allocate on any path the module uses.
var safeStdPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// allocStdPkgs are standard-library packages known to allocate in their
// common entry points; calling them on a hot path is always a finding.
var allocStdPkgs = map[string]bool{
	"bufio":   true,
	"bytes":   true,
	"errors":  true,
	"fmt":     true,
	"io":      true,
	"os":      true,
	"sort":    true,
	"strconv": true,
	"strings": true,
}

// safeIfaceMethods are interface methods whose contract forbids allocation
// regardless of the implementation behind them.
var safeIfaceMethods = map[string]bool{
	// ReadAt fills the caller-provided buffer; implementations used here
	// (os.File, the in-memory spill) do not allocate per call.
	"(io.ReaderAt).ReadAt": true,
}

// isBuiltinIn reports whether the call invokes the named builtin, resolved
// through info (the info of the package owning the syntax, which for
// cross-package graph nodes is not the pass's own package).
func isBuiltinIn(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	_, ok = obj.(*types.Builtin)
	return ok
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteOrRuneSlice reports whether t is []byte or []rune (underlying).
func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isPointerShaped reports whether values of t fit an interface data word
// without boxing.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// capturedVar returns a variable the function literal captures from its
// enclosing function (forcing a heap-allocated closure), or nil. Package-
// level variables and struct fields do not force a closure.
func capturedVar(info *types.Info, lit *ast.FuncLit) *types.Var {
	var found *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil {
			return true
		}
		if v.Parent().Parent() == types.Universe {
			return true // package-level
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			found = v
			return false
		}
		return true
	})
	return found
}
