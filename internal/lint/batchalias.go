package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BatchAlias enforces the batch-lifetime contract of trace.BatchStream
// (DESIGN.md §9): the slice returned by NextBatch is a zero-copy window
// into stream internals, valid only until the next NextBatch call. Reading
// it in place — indexing, ranging, passing it down a call chain that
// finishes before the next batch — is the intended use. *Retaining* it is
// the bug class: returning it, storing it into a field, map, slice element
// or package-level variable, capturing it in a composite literal, or
// appending the slice itself as an element all keep an alias alive across
// the next NextBatch call, after which its contents are silently rewritten.
//
// The check is a taint walk: locals assigned from a call to a method named
// NextBatch are batch windows, and the taint follows plain rebinding and
// re-slicing (a subslice of a window is still the window). Any other call
// result is a fresh value — append([]T(nil), b...) kills the taint, which
// is also the prescribed fix.
//
// Since PR 7 the walk rides the call graph across function boundaries:
// passing a window to a static in-module callee consults a per-parameter
// summary of that callee (computed on demand, cycle-safe), so a helper that
// stores its slice argument into a field is flagged at the call site, with
// the retention spelled out; a helper that returns its argument propagates
// the taint into the caller. Calls through interfaces or function values
// are not resolved — handing a window to a callback remains the intended
// use and the callee is checked in its own right when analyzed.
var BatchAlias = &Analyzer{
	Name: "batchalias",
	Doc:  "slices returned by NextBatch must not outlive the next NextBatch call: no returning, storing, or element-appending a batch window, directly or through a callee",
	Run:  runBatchAlias,
}

func runBatchAlias(pass *Pass) {
	ctx := &baCtx{
		pass:       pass,
		summaries:  make(map[*types.Func]*baSummary),
		inProgress: make(map[*types.Func]bool),
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &baWalker{ctx: ctx, pkg: pass.Pkg, fd: fd, taint: make(map[types.Object]int)}
			w.walk()
		}
	}
}

// baCtx carries one batchalias run: the pass plus memoized callee summaries.
type baCtx struct {
	pass       *Pass
	summaries  map[*types.Func]*baSummary
	inProgress map[*types.Func]bool
}

// baSummary describes how a function treats its slice parameters.
type baSummary struct {
	// retains[i] describes the retention of parameter i ("stores it into
	// h.batch"), empty when the parameter never outlives the call.
	retains map[int]string
	// returnsParam[i] reports that the function may return an alias of
	// parameter i, so the caller's result carries the caller's taint.
	returnsParam map[int]bool
}

var emptySummary = &baSummary{}

// summaryFor computes (and memoizes) the parameter summary of a static
// in-module callee. Functions outside the call graph, and cycles, get the
// empty summary — a soundness limit traded for termination, backstopped by
// analyzing every package together in `make lint`.
func (ctx *baCtx) summaryFor(fn *types.Func) *baSummary {
	if s, ok := ctx.summaries[fn]; ok {
		return s
	}
	if ctx.inProgress[fn] || ctx.pass.Graph == nil {
		return emptySummary
	}
	node := ctx.pass.Graph.Node(fn)
	if node == nil {
		return emptySummary
	}
	ctx.inProgress[fn] = true
	defer delete(ctx.inProgress, fn)

	sum := &baSummary{retains: make(map[int]string), returnsParam: make(map[int]bool)}
	w := &baWalker{ctx: ctx, pkg: node.Pkg, fd: node.Decl, taint: make(map[types.Object]int), sum: sum}
	// Seed every slice-typed parameter with its index.
	idx := 0
	if node.Decl.Type.Params != nil {
		for _, field := range node.Decl.Type.Params.List {
			names := field.Names
			if len(names) == 0 {
				idx++ // unnamed parameter cannot be retained
				continue
			}
			for _, name := range names {
				if obj := node.Pkg.Info.Defs[name]; obj != nil {
					if _, ok := obj.Type().Underlying().(*types.Slice); ok {
						w.taint[obj] = idx
					}
				}
				idx++
			}
		}
	}
	w.walk()
	ctx.summaries[fn] = sum
	return sum
}

// record notes a retention (or return) of a parameter in the summary being
// built. The first description wins — one per parameter is enough for a
// diagnostic.
func (s *baSummary) record(origin int, desc string) {
	if origin >= 0 && s.retains[origin] == "" {
		s.retains[origin] = desc
	}
}

// baWalker walks one function body tracking aliases of batch windows (main
// mode, sum == nil, reporting diagnostics) or of slice parameters (summary
// mode, sum != nil, recording retention).
type baWalker struct {
	ctx *baCtx
	pkg *Package
	fd  *ast.FuncDecl
	// taint maps a variable to the origin it aliases: a parameter index in
	// summary mode, -1 for NextBatch windows in main mode.
	taint map[types.Object]int
	sum   *baSummary // nil in main mode
}

func (w *baWalker) objectOf(id *ast.Ident) types.Object { return objectOf(w.pkg.Info, id) }

// isNextBatchCall reports whether expr calls a method named NextBatch.
func (w *baWalker) isNextBatchCall(expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NextBatch" {
		return false
	}
	fn, ok := w.objectOf(sel.Sel).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// staticCallee resolves a call to a named in-module function or concrete
// method, or nil (builtins, interface methods, function values).
func (w *baWalker) staticCallee(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := w.objectOf(f).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[f]; ok {
			if sel.Kind() != types.MethodVal || types.IsInterface(sel.Recv()) {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := w.objectOf(f.Sel).(*types.Func)
		return fn
	}
	return nil
}

// window unwraps re-slicing and parens down to a tainted variable: b[lo:hi]
// aliases the same backing window as b. Indexing is NOT unwrapped — b[i] is
// an element copy, which is free to escape.
func (w *baWalker) window(expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			obj := w.objectOf(e)
			if obj != nil {
				if _, ok := w.taint[obj]; ok {
					return obj
				}
			}
			return nil
		case *ast.SliceExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// alias resolves expr to the tainted variable it aliases, following calls
// to callees that return their argument: alias(identity(b)) is (b,
// "identity"). via is empty for direct aliases.
func (w *baWalker) alias(expr ast.Expr) (types.Object, string) {
	if obj := w.window(expr); obj != nil {
		return obj, ""
	}
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	fn := w.staticCallee(call)
	if fn == nil {
		return nil, ""
	}
	sum := w.ctx.summaryFor(fn)
	for i, arg := range call.Args {
		if !sum.returnsParam[i] {
			continue
		}
		if obj := w.window(arg); obj != nil {
			return obj, displayName(fn)
		}
	}
	return nil, ""
}

// isPackageLevel reports whether obj is a package-level variable.
func isPackageLevel(obj types.Object) bool {
	return obj.Parent() != nil && obj.Parent().Parent() == types.Universe
}

// retained handles one retention event: reported in main mode, recorded in
// summary mode. mainMsg is the full diagnostic (already naming the window);
// sumDesc describes the retention from the parameter's point of view.
func (w *baWalker) retained(pos token.Pos, obj types.Object, mainMsg, sumDesc string) {
	if w.sum != nil {
		w.sum.record(w.taint[obj], sumDesc)
		return
	}
	w.ctx.pass.Reportf(pos, "%s", mainMsg)
}

func (w *baWalker) walk() {
	fnName := w.fd.Name.Name
	fix := func(obj types.Object) string {
		return "the batch is rewritten by the next NextBatch call — copy it first (append([]T(nil), " + obj.Name() + "...))"
	}

	// taintFrom taints lhs when rhs is a window source: a NextBatch call
	// (main mode only — a callee's own windows are its own pass's business),
	// an alias of a tainted variable, or a callee passing its argument back.
	taintFrom := func(lhsObj types.Object, rhs ast.Expr) bool {
		if w.sum == nil && w.isNextBatchCall(rhs) {
			w.taint[lhsObj] = -1
			return true
		}
		if obj, _ := w.alias(rhs); obj != nil {
			w.taint[lhsObj] = w.taint[obj]
			return true
		}
		return false
	}

	// checkComposite flags windows captured by a composite literal (struct
	// field, slice/map element): the literal outlives the window.
	checkComposite := func(lit *ast.CompositeLit) {
		for _, elt := range lit.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if obj := w.window(val); obj != nil {
				w.retained(val.Pos(), obj,
					fnName+" captures NextBatch window \""+obj.Name()+"\" in a composite literal; "+fix(obj),
					"captures it in a composite literal")
			}
		}
	}

	// checkCallArgs flags windows handed to a static callee whose summary
	// retains the corresponding parameter.
	checkCallArgs := func(call *ast.CallExpr) {
		fn := w.staticCallee(call)
		if fn == nil {
			return
		}
		var sum *baSummary
		for i, arg := range call.Args {
			obj := w.window(arg)
			if obj == nil {
				continue
			}
			if sum == nil {
				sum = w.ctx.summaryFor(fn)
			}
			desc, ok := sum.retains[i]
			if !ok {
				continue
			}
			callee := displayName(fn)
			w.retained(arg.Pos(), obj,
				fnName+" passes NextBatch window \""+obj.Name()+"\" to "+callee+", which "+desc+"; "+fix(obj),
				"passes it to "+callee+", which "+desc)
		}
	}

	ast.Inspect(w.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				switch {
				case len(n.Rhs) == len(n.Lhs):
					rhs = n.Rhs[i]
				case i == 0 && len(n.Rhs) == 1:
					rhs = n.Rhs[0] // comma-ok / multi-value call
				default:
					continue
				}
				if id, ok := lhs.(*ast.Ident); ok {
					obj := w.objectOf(id)
					if obj == nil {
						continue
					}
					// A package-level variable is a store, not a rebinding:
					// the alias outlives every call in the program.
					if isPackageLevel(obj) {
						if src, _ := w.alias(rhs); src != nil {
							w.retained(n.Pos(), src,
								fnName+" stores NextBatch window \""+src.Name()+"\" into package-level variable "+obj.Name()+"; "+fix(src),
								"stores it into package-level variable "+obj.Name())
						}
						continue
					}
					if !taintFrom(obj, rhs) {
						delete(w.taint, obj) // any other call/value is fresh
					}
					continue
				}
				// Store through a field or index: the destination outlives
				// the window regardless of what it belongs to.
				if obj := w.window(rhs); obj != nil {
					dest := types.ExprString(lhs)
					w.retained(n.Pos(), obj,
						fnName+" stores NextBatch window \""+obj.Name()+"\" into "+dest+"; "+fix(obj),
						"stores it into "+dest)
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if i < len(n.Values) {
					if obj := w.objectOf(id); obj != nil {
						taintFrom(obj, n.Values[i])
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				obj, via := w.alias(res)
				if obj == nil {
					continue
				}
				name := "\"" + obj.Name() + "\""
				if via != "" {
					name += " (via " + via + ")"
				}
				if w.sum != nil {
					// Returning a parameter alias is not retention — the
					// caller decides what the result's lifetime means.
					if origin := w.taint[obj]; origin >= 0 {
						w.sum.returnsParam[origin] = true
					}
					continue
				}
				w.ctx.pass.Reportf(n.Pos(), "%s returns NextBatch window %s, which is only valid until the next NextBatch call; return a copy (append([]T(nil), %s...))",
					fnName, name, obj.Name())
			}
		case *ast.CallExpr:
			if isBuiltinIn(w.pkg.Info, n, "append") && n.Ellipsis == token.NoPos {
				// append(dst, b) retains the window as an element;
				// append(dst, b...) copies its contents and is the fix.
				for _, arg := range n.Args[1:] {
					if obj := w.window(arg); obj != nil {
						w.retained(arg.Pos(), obj,
							fnName+" appends NextBatch window \""+obj.Name()+"\" as an element, retaining it past the next NextBatch call; append a copy (append([]T(nil), "+obj.Name()+"...))",
							"retains it as an appended element")
					}
				}
				return true
			}
			checkCallArgs(n)
		case *ast.CompositeLit:
			checkComposite(n)
		}
		return true
	})
}
