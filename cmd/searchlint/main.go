// Command searchlint enforces the simulator's determinism invariants (see
// DESIGN.md, "Determinism & aliasing invariants"). It is built only on the
// standard library: go/parser and go/types load and type-check every package
// of the module, then each analyzer inspects the typed syntax trees.
//
// Usage:
//
//	searchlint [-run a,b] [-list] [packages]
//
// Packages default to ./... (the whole module). Findings print as
// "file:line:col: [analyzer] message" and make the exit status 1. Suppress
// an intentional violation with a justified directive on the offending line
// or the line above:
//
//	//lint:ignore walltime CLI progress timer, never feeds simulation state
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"searchmem/internal/lint"
)

func main() {
	var (
		list = flag.Bool("list", false, "list analyzers and exit")
		run  = flag.String("run", "", "comma-separated analyzers to run (default: all)")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: searchlint [-run a,b] [-list] [packages]")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers, err := lint.ByName(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "searchlint: %v\n", err)
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	mod, err := lint.LoadModule(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "searchlint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := mod.Match(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "searchlint: %v\n", err)
		os.Exit(2)
	}

	diags := lint.Check(mod.Fset, pkgs, analyzers)
	cwd, _ := os.Getwd()
	for _, d := range diags {
		name := d.Pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil {
				name = rel
			}
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", name, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "searchlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
