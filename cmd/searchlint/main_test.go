package main

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"searchmem/internal/lint"
)

// want is one golden expectation: a regexp that must match exactly one
// diagnostic message on its line.
type want struct {
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants extracts "// want" expectations from a fixture: each is one
// or more backquote-delimited regexes following the marker on one line.
func parseWants(t *testing.T, filename string) []*want {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for i, line := range strings.Split(string(data), "\n") {
		_, rest, ok := strings.Cut(line, "// want ")
		if !ok {
			continue
		}
		found := false
		for {
			start := strings.IndexByte(rest, '`')
			if start < 0 {
				break
			}
			end := strings.IndexByte(rest[start+1:], '`')
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want regexp", filename, i+1)
			}
			re, err := regexp.Compile(rest[start+1 : start+1+end])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", filename, i+1, err)
			}
			wants = append(wants, &want{line: i + 1, re: re})
			rest = rest[start+end+2:]
			found = true
		}
		if !found {
			t.Fatalf("%s:%d: want marker without a backquoted regexp", filename, i+1)
		}
	}
	return wants
}

// TestAnalyzersGolden runs each analyzer alone over its fixture and checks
// the diagnostics against the fixture's want expectations. Fixtures also
// carry fixed and //lint:ignore-suppressed forms with no wants, so a
// spurious diagnostic — including one that should have been suppressed —
// fails the test.
func TestAnalyzersGolden(t *testing.T) {
	fset := token.NewFileSet()
	imp := lint.StdImporter(fset)
	for _, a := range lint.Analyzers {
		t.Run(a.Name, func(t *testing.T) {
			file := filepath.Join("testdata", a.Name+".go")
			pkg, err := lint.LoadFile(fset, imp, file)
			if err != nil {
				t.Fatal(err)
			}
			diags := lint.Check(fset, []*lint.Package{pkg}, []*lint.Analyzer{a})
			if len(diags) == 0 {
				t.Fatalf("analyzer %s produced no diagnostics on its fixture", a.Name)
			}
			wants := parseWants(t, file)
			for _, d := range diags {
				matched := false
				for _, w := range wants {
					if !w.hit && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, w.line, w.re)
				}
			}
		})
	}
}

// TestRepoIsLintClean is the merged-tree acceptance gate: the full suite
// over the whole module must report nothing. Any new violation must be
// fixed or carry a justified //lint:ignore.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module (and the stdlib from source); skipped in -short")
	}
	mod, err := lint.LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := mod.Match(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loader found only %d packages; discovery is broken", len(pkgs))
	}
	for _, d := range lint.Check(mod.Fset, pkgs, lint.Analyzers) {
		t.Errorf("%s", d)
	}
}
