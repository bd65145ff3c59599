package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"

	"searchmem/internal/det"
	"strings"
)

// A Package is one parsed, type-checked package of the module under
// analysis.
type Package struct {
	// Path is the import path ("searchmem/internal/cache").
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Info carries the go/types results the analyzers read.
	Info *types.Info
}

// A Module is a loaded Go module: every non-test package, type-checked.
type Module struct {
	// Dir is the absolute module root (the directory holding go.mod).
	Dir string
	// Path is the module path from go.mod.
	Path string
	// Fset positions every file of every package.
	Fset *token.FileSet
	// Pkgs holds all packages sorted by import path.
	Pkgs []*Package
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// StdImporter returns an importer that type-checks standard-library
// dependencies from source. It keeps the module zero-dependency: no
// golang.org/x/tools, no export-data archives required.
func StdImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}

// moduleImporter resolves module-local import paths from already-checked
// packages and everything else through the standard-library source importer.
type moduleImporter struct {
	std   types.Importer
	local map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.local[path]; ok {
		return pkg, nil
	}
	return m.std.Import(path)
}

// newInfo allocates the types.Info maps the analyzers read: expression
// types, and the objects identifiers define and use.
func newInfo() *types.Info {
	return &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
}

// LoadModule loads and type-checks every non-test package of the module
// containing dir. Directories named testdata or vendor, and directories
// whose name starts with "." or "_", are skipped (so analyzer fixtures with
// intentional violations are never linted).
func LoadModule(dir string) (*Module, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{Dir: root, Path: modPath, Fset: token.NewFileSet()}

	// Discover and parse every package directory.
	type parsed struct {
		pkg     *Package
		imports []string // module-local imports only
	}
	byPath := make(map[string]*parsed)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := parseDir(mod.Fset, path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		p := &parsed{pkg: &Package{Path: importPath, Dir: path, Files: files}}
		for _, f := range files {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					p.imports = append(p.imports, ip)
				}
			}
		}
		byPath[importPath] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Type-check in dependency order.
	imp := &moduleImporter{
		std:   StdImporter(mod.Fset),
		local: make(map[string]*types.Package),
	}
	checked := make(map[string]bool)
	onStack := make(map[string]bool)
	var check func(path string) error
	check = func(path string) error {
		if checked[path] {
			return nil
		}
		if onStack[path] {
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		onStack[path] = true
		defer delete(onStack, path)
		p := byPath[path]
		for _, dep := range p.imports {
			if byPath[dep] == nil {
				return fmt.Errorf("lint: %s imports %s, which has no sources in the module", path, dep)
			}
			if err := check(dep); err != nil {
				return err
			}
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, mod.Fset, p.pkg.Files, info)
		if err != nil {
			return fmt.Errorf("lint: type-checking %s: %w", path, err)
		}
		p.pkg.Info = info
		imp.local[path] = tpkg
		checked[path] = true
		return nil
	}
	paths := det.SortedKeys(byPath)
	for _, path := range paths {
		if err := check(path); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		mod.Pkgs = append(mod.Pkgs, byPath[path].pkg)
	}
	return mod, nil
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
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Match selects packages by Go-style patterns relative to the module root:
// "./..." (or "all") selects everything, "./x/..." a subtree, and "./x" a
// single package. Absolute and unprefixed relative paths are accepted too.
func (m *Module) Match(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected := make(map[*Package]bool)
	var out []*Package
	for _, pat := range patterns {
		matched := false
		if pat == "all" || pat == "./..." || pat == "..." {
			for _, p := range m.Pkgs {
				if !selected[p] {
					selected[p] = true
					out = append(out, p)
				}
			}
			continue
		}
		tree := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			tree = true
			pat = rest
		}
		rel := strings.TrimPrefix(filepath.ToSlash(filepath.Clean(pat)), "./")
		want := m.Path
		if rel != "" && rel != "." {
			want = m.Path + "/" + rel
		}
		for _, p := range m.Pkgs {
			if p.Path == want || (tree && strings.HasPrefix(p.Path, want+"/")) {
				matched = true
				if !selected[p] {
					selected[p] = true
					out = append(out, p)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("lint: pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

// LoadFile parses and type-checks a single standalone file (an analyzer
// test fixture). Imports resolve through imp, which should come from
// StdImporter so fixtures may use the standard library.
func LoadFile(fset *token.FileSet, imp types.Importer, filename string) (*Package, error) {
	f, err := parser.ParseFile(fset, filename, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(f.Name.Name, fset, []*ast.File{f}, info); err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", filename, err)
	}
	return &Package{
		Path:  f.Name.Name,
		Dir:   filepath.Dir(filename),
		Files: []*ast.File{f},
		Info:  info,
	}, nil
}
