package searchlint

import (
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the lint: the three rules over every non-test package
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

// TestKnobsSynthetic runs the knobs rule over a toy module. Reported: a
// field nobody writes, a field only its defaulting writes, a field of a
// struct that is not a *Config type set to one constant, and a *Config
// field set to one constant in one keyed literal and left out of another.
// Not reported: a field set to two constants, a field set from a variable,
// a bool, fields written only through an index (x.F[i]++, x.F[i] = v), a
// non-*Config field set to one constant in one keyed literal and left out
// (so zero) in another, and the fields of unexported structs and of
// structs outside internal/.
func TestKnobsSynthetic(t *testing.T) {
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
	write("internal/a/a.go", `package a

type Config struct {
	Never  int
	One    float64
	Two    int
	Varies int
	Flag   bool
	Omit   int
	hidden int
}

type Other struct {
	One    int
	Counts [4]int
	Hits   [2]float64
	Omit   int
}

type lowConfig struct{ Y int }

type low struct{ Z int }

func (c Config) WithDefaults() Config {
	if c.One == 0 {
		c.One = 40
	}
	c.hidden = 1
	return c
}
`)
	write("cmd/b/b.go", `package b

import "toy/internal/a"

type Outside struct{ W int }

func Use(n int) (a.Config, a.Config, a.Other, a.Other, Outside) {
	c := a.Config{Two: 1, One: 40.0, Omit: 5}
	c.Two = 2
	c.Varies = n
	c.Flag = true
	o := a.Other{One: 7, Omit: 5}
	o.Counts[n]++
	o.Hits[n%2] = 1
	return c.WithDefaults(), a.Config{Two: 1}, o, a.Other{One: 7}, Outside{W: 1}
}
`)
	fset, pkgs, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range lint(fset, pkgs) {
		got = append(got, f.msg)
	}
	want := []string{
		"a.Config.Never is never written by shipped code; make it a constant",
		"a.Config.One is only ever set to 40 by shipped code; make it a constant",
		"a.Config.Omit is only ever set to 5 by shipped code; make it a constant",
		"a.Other.One is only ever set to 7 by shipped code; make it a constant",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
