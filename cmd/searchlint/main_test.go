package searchlint

import (
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the lint: both rules over every non-test package
// of the module must report nothing. A new violation is fixed, or its
// package joins a rule's exemptions with the reason.
func TestRepoIsLintClean(t *testing.T) {
	fset, pkgs, err := loadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loader found only %d packages; discovery is broken", len(pkgs))
	}
	for _, f := range lint(fset, pkgs) {
		t.Errorf("%s", f)
	}
}

// want is one golden expectation: a regexp that must match exactly one
// finding on its line.
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

// TestAnalyzersGolden lints each fixture in testdata and checks the
// findings against its want expectations. Fixtures also carry the fixed
// forms with no wants, so a spurious finding fails the test.
func TestAnalyzersGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".go"), func(t *testing.T) {
			p, err := loadFile(fset, imp, file)
			if err != nil {
				t.Fatal(err)
			}
			findings := lint(fset, []*pkg{p})
			if len(findings) == 0 {
				t.Fatalf("no findings on fixture %s", file)
			}
			wants := parseWants(t, file)
			for _, f := range findings {
				matched := false
				for _, w := range wants {
					if !w.hit && w.line == f.pos.Line && w.re.MatchString(f.msg) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected a finding matching %q, got none", file, w.line, w.re)
				}
			}
		})
	}
}

// TestLoadModuleSynthetic builds a toy module on disk and checks discovery,
// dependency-ordered type-checking and testdata skipping.
func TestLoadModuleSynthetic(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module toy\n\ngo 1.22\n")
	// b sorts before its dependency c, so c must be checked first.
	write("b/b.go", "package b\n\nimport \"toy/c\"\n\nvar M = c.N * 2\n")
	write("c/c.go", "package c\n\nconst N = 3\n")
	write("c/testdata/ignored.go", "package broken // never parsed: would fail to type-check\nfunc (")

	_, pkgs, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].path != "toy/b" || pkgs[1].path != "toy/c" {
		t.Fatalf("loaded %+v, want toy/b and toy/c", pkgs)
	}
	for _, p := range pkgs {
		if p.info == nil || len(p.info.Defs) == 0 {
			t.Errorf("%s was not type-checked", p.path)
		}
	}
}
