package searchlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"searchmem/internal/det"
)

// A pkg is one parsed, type-checked package under lint.
type pkg struct {
	// path is the import path ("searchmem/internal/cache"); a fixture's is
	// its package name.
	path  string
	files []*ast.File
	info  *types.Info
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module"); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// moduleImporter resolves module-local import paths from already-checked
// packages and everything else by type-checking the standard library from
// source, so the lint needs no export data and no golang.org/x/tools.
type moduleImporter struct {
	std   types.Importer
	local map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// newInfo allocates the types.Info maps the rules read: expression types,
// and the objects identifiers define and use.
func newInfo() *types.Info {
	return &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
}

// loadModule parses and type-checks every non-test package of the module
// rooted at root (the directory holding go.mod), in import-path order.
// Directories named testdata or vendor, or starting with "." or "_", are
// skipped, so the rules' fixtures are never linted as module code.
func loadModule(root string) (*token.FileSet, []*pkg, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	type parsed struct {
		p       *pkg
		imports []string // module-local imports only
	}
	byPath := make(map[string]*parsed)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := parseDir(fset, path)
		if err != nil || len(files) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pr := &parsed{p: &pkg{path: importPath, files: files}}
		for _, f := range files {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err == nil && (ip == modPath || strings.HasPrefix(ip, modPath+"/")) {
					pr.imports = append(pr.imports, ip)
				}
			}
		}
		byPath[importPath] = pr
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Type-check in dependency order.
	imp := &moduleImporter{
		std:   importer.ForCompiler(fset, "source", nil),
		local: make(map[string]*types.Package),
	}
	onStack := make(map[string]bool)
	var check func(path string) error
	check = func(path string) error {
		if imp.local[path] != nil {
			return nil
		}
		if onStack[path] {
			return fmt.Errorf("import cycle through %s", path)
		}
		onStack[path] = true
		defer delete(onStack, path)
		pr := byPath[path]
		for _, dep := range pr.imports {
			if byPath[dep] == nil {
				return fmt.Errorf("%s imports %s, which has no sources in the module", path, dep)
			}
			if err := check(dep); err != nil {
				return err
			}
		}
		pr.p.info = newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, pr.p.files, pr.p.info)
		if err != nil {
			return fmt.Errorf("type-checking %s: %w", path, err)
		}
		imp.local[path] = tpkg
		return nil
	}
	var pkgs []*pkg
	for _, path := range det.SortedKeys(byPath) {
		if err := check(path); err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, byPath[path].p)
	}
	return fset, pkgs, nil
}

// parseDir parses the non-test .go files of one directory, in name order.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loadFile parses and type-checks one standalone fixture file. Its imports
// resolve through imp, so fixtures may use the standard library.
func loadFile(fset *token.FileSet, imp types.Importer, filename string) (*pkg, error) {
	f, err := parser.ParseFile(fset, filename, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(f.Name.Name, fset, []*ast.File{f}, info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", filename, err)
	}
	return &pkg{path: f.Name.Name, files: []*ast.File{f}, info: info}, nil
}
