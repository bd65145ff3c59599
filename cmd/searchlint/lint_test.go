// Package searchlint is the determinism lint, run as a test. Every figure
// and table must render byte-identically from a seed (DESIGN.md §8), so
// `go test ./cmd/searchlint` loads and type-checks every non-test package of
// the module with the standard library alone (go/parser, go/types and the
// "source" importer; no golang.org/x/tools) and fails on any finding of
// three rules:
//
//   - imports: no package uses math/rand, and only the packages a rule
//     allows call the time functions that read the wall clock;
//   - maporder: no range over a map appends, writes output, or accumulates
//     into state that outlives an iteration;
//   - knobs: every exported non-bool field of an exported struct under
//     internal/ is a choice that shipped code makes with two values at
//     least (DESIGN.md §7, the one-value rule). A write through an index
//     is never a constant, and outside *Config types a keyed literal that
//     leaves a field out writes its zero.
//
// There are no suppression comments. An exemption is a package or a field
// named in a rule below, with the reason it holds.
package searchlint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// A finding is one rule violation.
type finding struct {
	pos  token.Position
	rule string
	msg  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.pos.Filename, f.pos.Line, f.pos.Column, f.rule, f.msg)
}

// lint runs the three rules over pkgs and returns their findings in
// position order. imports and maporder look at one package at a time;
// knobs looks at the module as a whole.
func lint(fset *token.FileSet, pkgs []*pkg) []finding {
	var out []finding
	reporter := func(rule string) func(token.Pos, string) {
		return func(pos token.Pos, msg string) {
			out = append(out, finding{fset.Position(pos), rule, msg})
		}
	}
	for _, p := range pkgs {
		checkImports(p, reporter("imports"))
		checkMapOrder(p, reporter("maporder"))
	}
	checkKnobs(pkgs, reporter("knobs"))
	slices.SortFunc(out, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.pos.Filename, b.pos.Filename),
			cmp.Compare(a.pos.Line, b.pos.Line), cmp.Compare(a.pos.Column, b.pos.Column))
	})
	return out
}

// importRules ban package-level names of an imported package outside the
// packages a rule allows. Simulation and serving run on virtual time and
// draw every random number from the seeded stats.RNG; these are the
// standard-library names that would couple a rendered number to the host
// or to a process-global random source.
var importRules = []struct {
	path  string          // the imported package
	names map[string]bool // the banned names; nil bans every name
	allow []string        // the importing packages exempt from the ban
	why   string
}{
	{path: "math/rand", why: "bypasses the seeded stats.RNG, the one source of randomness"},
	{path: "math/rand/v2", why: "bypasses the seeded stats.RNG, the one source of randomness"},
	{
		path: "time",
		names: map[string]bool{
			"Now": true, "Since": true, "Until": true, "Sleep": true, "Tick": true,
			"After": true, "AfterFunc": true, "NewTicker": true, "NewTimer": true,
		},
		// searchsim's -v timer and the benchmark measure host time by
		// design; neither feeds a reading into simulation state.
		allow: []string{"searchmem/cmd/searchsim", "searchmem/bench"},
		why:   "reads the wall clock; simulation and serving run on virtual time",
	},
}

// checkImports reports every use of a banned name. Types and constants such
// as time.Duration stay legal: virtual time is denominated in them.
func checkImports(p *pkg, report func(token.Pos, string)) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.info.Uses[id]
			// Package-level objects only: methods such as Time.After have
			// no parent scope.
			if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
				return true
			}
			for _, r := range importRules {
				if r.path == obj.Pkg().Path() && (r.names == nil || r.names[obj.Name()]) && !slices.Contains(r.allow, p.path) {
					report(id.Pos(), fmt.Sprintf("%s.%s %s", obj.Pkg().Name(), obj.Name(), r.why))
				}
			}
			return true
		})
	}
}

// sortedKeysPkg owns the one sanctioned order-sensitive map range:
// det.SortedKeys and SortedKeysFunc collect a map's keys to sort them, and
// every other package ranges over their result.
const sortedKeysPkg = "searchmem/internal/det"

// checkMapOrder reports, inside every range over a map, each statement whose
// effect depends on iteration order: appending to a slice, writing output,
// or accumulating into a variable declared outside the loop. Go randomizes
// map order per run, so such loops corrupt rendered tables even when every
// element is deterministic, and float sums also differ in their low bits,
// since float addition is not associative.
func checkMapOrder(p *pkg, report func(token.Pos, string)) {
	if p.path == sortedKeysPkg {
		return
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok && isMap(p.info.TypeOf(rs.X)) {
				checkMapRangeBody(p, rs, report)
			}
			return true
		})
	}
}

// checkMapRangeBody walks one map-range body. A nested map range is skipped
// here and checked on its own.
func checkMapRangeBody(p *pkg, rs *ast.RangeStmt, report func(token.Pos, string)) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		var what string
		switch n := n.(type) {
		case *ast.RangeStmt:
			return !isMap(p.info.TypeOf(n.X))
		case *ast.AssignStmt:
			what = assignEffect(p, rs, n)
		case *ast.CallExpr:
			what = outputEffect(p, rs, n)
		}
		if what != "" {
			report(n.Pos(), what+" in map iteration order; range over det.SortedKeys instead")
		}
		return true
	})
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// assignEffect describes an assignment that appends to or accumulates into
// a variable declared outside rs, or returns "".
func assignEffect(p *pkg, rs *ast.RangeStmt, as *ast.AssignStmt) string {
	switch as.Tok {
	case token.DEFINE:
		return "" // declares per-iteration variables; nothing escapes
	case token.ASSIGN:
	default: // x += v, x *= v, ...
		if declaredOutside(p, rs, as.Lhs[0]) {
			return accumulation(p, as.Lhs[0], as.Tok.String())
		}
		return ""
	}
	if len(as.Lhs) != len(as.Rhs) {
		return "" // a multi-value call: neither an append nor a sum
	}
	for i, rhs := range as.Rhs {
		lhs := as.Lhs[i]
		if !declaredOutside(p, rs, lhs) {
			continue
		}
		switch rhs := rhs.(type) {
		case *ast.CallExpr:
			if isBuiltin(p, rhs, "append") {
				return "append to " + types.ExprString(lhs)
			}
		case *ast.BinaryExpr: // x = x + v, spelled out
			switch rhs.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
			default:
				continue
			}
			ls := types.ExprString(lhs)
			if types.ExprString(rhs.X) == ls || types.ExprString(rhs.Y) == ls {
				return accumulation(p, lhs, "= "+ls+" "+rhs.Op.String())
			}
		}
	}
	return ""
}

// accumulation describes folding a value into lhs with op; a float or
// complex accumulator also loses associativity.
func accumulation(p *pkg, lhs ast.Expr, op string) string {
	what := fmt.Sprintf("accumulation %s %s", types.ExprString(lhs), op)
	if b, ok := p.info.TypeOf(lhs).Underlying().(*types.Basic); ok && b.Info()&(types.IsFloat|types.IsComplex) != 0 {
		what += " (float addition is not associative)"
	}
	return what
}

// writeMethods are the output-sink methods of io.Writer, strings.Builder,
// bytes.Buffer, tabwriter and the like.
var writeMethods = map[string]bool{"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true}

// outputEffect describes a call that emits output from inside rs — the fmt
// Print and Fprint families, or a Write method on a sink declared outside
// rs — or returns "".
func outputEffect(p *pkg, rs *ast.RangeStmt, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if fn.Parent() == fn.Pkg().Scope() { // a package-level function
		if fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
			return "output via fmt." + fn.Name()
		}
		return ""
	}
	if writeMethods[fn.Name()] && declaredOutside(p, rs, sel.X) {
		return fmt.Sprintf("write to %s via %s", types.ExprString(sel.X), fn.Name())
	}
	return ""
}

// declaredOutside reports whether the variable at the root of expr — past
// selectors, indexing, dereferences and parentheses — is declared outside
// rs, so a mutation through expr outlives the iteration.
func declaredOutside(p *pkg, rs *ast.RangeStmt, expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			obj := p.info.Uses[e]
			return obj != nil && obj.Pos().IsValid() && (obj.Pos() < rs.Pos() || obj.Pos() >= rs.End())
		default:
			return false // rooted in a call or a literal
		}
	}
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(p *pkg, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.info.Uses[id].(*types.Builtin)
	return ok
}

// knobExemptions are the one-value knobs that stay fields, each with the
// reason it holds. The key is package.Type.Field.
var knobExemptions = map[string]string{
	"serving.Config.TopK":           "the frozen bench/ reads it",
	"serving.Config.CacheSlots":     "the serving-tree example sets it, and its golden pins the output",
	"serving.Config.Fanout":         "the serving-tree example prints it, and its golden pins the output",
	"cpu.TLBConfig.L1Assoc":         "a row of the platforms' hardware tables, which happen to agree",
	"cpu.TLBConfig.L2Assoc":         "a row of the platforms' hardware tables, which happen to agree",
	"cpu.TLBConfig.L2Entries":       "a row of the platforms' hardware tables, which happen to agree",
	"platform.Platform.Sockets":     "a row of the platforms' hardware tables, which happen to agree",
	"serving.FleetEvent.OutageLeaf": "the frozen bench/fleet.go sets it, so it cannot become a constant",
	"serving.Scenario.VocabSize":    "the frozen bench/fleet.go sets it, so it cannot become a constant",
	"serving.Scenario.Skew":         "the frozen bench/fleet.go sets it, so it cannot become a constant",
}

// A knob is one exported non-bool field of an exported struct under
// internal/, with every value shipped code writes into it.
type knob struct {
	name   string           // package.Type.Field
	pos    token.Pos        // the field's declaration
	config bool             // the struct is a *Config type
	values []constant.Value // the distinct constants written
	varies bool             // some write is not a constant
}

// checkKnobs reports each knob that shipped code never writes, or writes
// only with one and the same constant: a choice nobody makes belongs in a
// named constant, not in a field with its defaulting and validation. A
// write is a composite-literal element, an assignment or ++/--; any write
// that is not a constant counts as a second value, and so does a write
// through an index (x.F[i]++, x.F[i] = v), which fills a table or a
// counter rather than choosing a value. Outside *Config types, a keyed or
// empty composite literal that leaves a field out writes that field's
// zero, since leaving it out selects a behaviour of its own (a default, or
// "no cap"). A *Config literal sets only what it changes, so there an
// omission is no write and a field whose one explicit value is its default
// is still reported. Taking a field's address is not a write, so a field set
// only through a pointer is reported, which is loud rather than silent.
// Bool fields are skipped, since writing true anywhere makes the zero value
// the second value.
func checkKnobs(pkgs []*pkg, report func(token.Pos, string)) {
	knobs := make(map[*types.Var]*knob)
	var order []*knob
	for _, p := range pkgs {
		if !strings.Contains(p.path+"/", "/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					for _, field := range st.Fields.List {
						for _, id := range field.Names {
							v, ok := p.info.Defs[id].(*types.Var)
							if !ok || !id.IsExported() || isBool(v.Type()) {
								continue
							}
							k := &knob{
								name:   f.Name.Name + "." + ts.Name.Name + "." + id.Name,
								pos:    id.Pos(),
								config: strings.HasSuffix(ts.Name.Name, "Config"),
							}
							knobs[v] = k
							order = append(order, k)
						}
					}
				}
			}
		}
	}
	for _, p := range pkgs {
		record := func(field types.Object, c constant.Value) {
			v, _ := field.(*types.Var)
			k := knobs[v]
			if k == nil {
				return
			}
			if c == nil {
				k.varies = true
				return
			}
			if !slices.ContainsFunc(k.values, func(w constant.Value) bool { return constant.Compare(w, token.EQL, c) }) {
				k.values = append(k.values, c)
			}
		}
		write := func(field types.Object, value ast.Expr) {
			var c constant.Value
			if value != nil {
				c = p.info.Types[value].Value
			}
			record(field, c)
		}
		// written returns the field a write to e lands in and whether it
		// lands through an index, or nil when e is not a field.
		written := func(e ast.Expr) (types.Object, bool) {
			indexed := false
			for {
				switch x := ast.Unparen(e).(type) {
				case *ast.IndexExpr:
					e, indexed = x.X, true
				case *ast.SelectorExpr:
					return p.info.Uses[x.Sel], indexed
				default:
					return nil, false
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := p.info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					keyed := make(map[types.Object]bool)
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							field := p.info.Uses[kv.Key.(*ast.Ident)]
							keyed[field] = true
							write(field, kv.Value)
						} else {
							write(st.Field(i), elt)
						}
					}
					if len(n.Elts) > 0 && len(keyed) == 0 {
						break // positional: every field is written
					}
					for i := range st.NumFields() {
						if v := st.Field(i); !keyed[v] && knobs[v] != nil && !knobs[v].config {
							if zero := zeroConst(v.Type()); zero != nil {
								record(v, zero)
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if field, indexed := written(lhs); field != nil {
							var value ast.Expr
							if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) && !indexed {
								value = n.Rhs[i]
							}
							write(field, value)
						}
					}
				case *ast.IncDecStmt:
					if field, _ := written(n.X); field != nil {
						write(field, nil)
					}
				}
				return true
			})
		}
	}
	for _, k := range order {
		if _, ok := knobExemptions[k.name]; ok || k.varies || len(k.values) > 1 {
			continue
		}
		if len(k.values) == 0 {
			report(k.pos, k.name+" is never written by shipped code; make it a constant")
		} else {
			report(k.pos, fmt.Sprintf("%s is only ever set to %s by shipped code; make it a constant", k.name, k.values[0]))
		}
	}
}

// zeroConst is the zero value of a basic type t as a constant, or nil for
// any other type, whose writes are never constants.
func zeroConst(t types.Type) constant.Value {
	b, ok := t.Underlying().(*types.Basic)
	switch {
	case !ok:
		return nil
	case b.Info()&types.IsInteger != 0:
		return constant.MakeInt64(0)
	case b.Info()&types.IsFloat != 0:
		return constant.MakeFloat64(0)
	case b.Info()&types.IsString != 0:
		return constant.MakeString("")
	}
	return nil
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}
