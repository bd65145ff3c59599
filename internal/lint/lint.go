// Package lint is a zero-dependency static-analysis framework for this
// module. It loads and type-checks every package using only the standard
// library (go/parser, go/types and the "source" importer for standard-library
// dependencies), runs a set of pluggable analyzers, and reports diagnostics
// in the familiar "file:line:col: [analyzer] message" shape.
//
// The analyzers mechanize the determinism invariants the simulator depends
// on (see DESIGN.md, "Determinism & aliasing invariants"): simulation
// results must be bit-for-bit reproducible run-to-run, so wall clocks, the
// global math/rand source, and map-iteration-order-dependent output and
// accumulation are all findings.
//
// Findings can be suppressed, with a mandatory justification, by a comment
// on the offending line or on the line directly above it:
//
//	//lint:ignore walltime CLI progress timer, never feeds simulation state
//
// Several analyzers may be named, comma-separated. A directive without a
// reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"searchmem/internal/det"
)

// An Analyzer checks one invariant over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(*Pass)
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expr, or nil if unknown.
func (p *Pass) TypeOf(expr ast.Expr) types.Type { return p.Pkg.Info.TypeOf(expr) }

// ObjectOf returns the object an identifier denotes (definition or use),
// or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Uses[id]
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	file      string
	line      int
	analyzers map[string]bool
	reason    string
}

const ignorePrefix = "//lint:ignore"

// parseIgnores extracts the ignore directives of a file. Malformed
// directives (no analyzer, or no reason) are reported as findings of the
// pseudo-analyzer "lint" so they cannot silently suppress nothing.
func parseIgnores(fset *token.FileSet, file *ast.File, diags *[]Diagnostic) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			names, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if names == "" || reason == "" {
				*diags = append(*diags, Diagnostic{
					Pos:      pos,
					Analyzer: "lint",
					Message:  "malformed ignore directive: want //lint:ignore <analyzer>[,<analyzer>] <reason>",
				})
				continue
			}
			d := ignoreDirective{
				pos:       pos,
				file:      pos.Filename,
				line:      pos.Line,
				analyzers: make(map[string]bool),
				reason:    reason,
			}
			for _, n := range strings.Split(names, ",") {
				d.analyzers[strings.TrimSpace(n)] = true
			}
			out = append(out, d)
		}
	}
	return out
}

// suppresses reports whether directive d covers diagnostic diag: same file,
// the named analyzer, and the diagnostic sits on the directive's own line
// (trailing comment) or on the line directly below (standalone comment).
func (d ignoreDirective) suppresses(diag Diagnostic) bool {
	if diag.Pos.Filename != d.file || !d.analyzers[diag.Analyzer] {
		return false
	}
	return diag.Pos.Line == d.line || diag.Pos.Line == d.line+1
}

// Check runs every analyzer over every package, applies //lint:ignore
// suppressions, and returns the surviving diagnostics sorted by position.
func Check(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	var directives []ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			directives = append(directives, parseIgnores(fset, f, &raw)...)
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, diags: &raw}
			a.Run(pass)
		}
	}

	// A directive naming an analyzer that does not exist suppresses nothing,
	// silently — the classic rot path when analyzers are renamed. Validate
	// against the full registry (not the selected subset, so running one
	// analyzer does not flag directives aimed at the others).
	known := map[string]bool{"lint": true}
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	for _, dir := range directives {
		for _, n := range det.SortedKeys(dir.analyzers) {
			if !known[n] {
				raw = append(raw, Diagnostic{
					Pos:      dir.pos,
					Analyzer: "lint",
					Message:  fmt.Sprintf("ignore directive names unknown analyzer %q and suppresses nothing", n),
				})
			}
		}
	}

	var out []Diagnostic
	seen := make(map[string]bool)
	for _, d := range raw {
		suppressed := false
		for _, dir := range directives {
			if dir.suppresses(d) {
				suppressed = true
				break
			}
		}
		if suppressed {
			continue
		}
		// Nested map ranges (and analyzers sharing a walk) can produce the
		// same finding twice; report each (pos, analyzer, message) once.
		if key := d.String(); !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// Analyzers is the full suite, in reporting order.
var Analyzers = []*Analyzer{
	Walltime,
	GlobalRand,
	MapOrder,
	FloatAcc,
}

// ByName returns the analyzers matching the comma-separated names list, or
// an error naming the first unknown entry. An empty list selects the full
// suite.
func ByName(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return Analyzers, nil
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		found := false
		for _, a := range Analyzers {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	return out, nil
}
