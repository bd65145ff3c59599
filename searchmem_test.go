package searchmem_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"searchmem"
)

// Example builds a small instrumented search engine, records the memory
// accesses one query makes, and replays them through a three-level cache
// hierarchy. README.md's library quickstart quotes this function verbatim.
func Example() {
	var recorded []searchmem.Access
	cfg := searchmem.DefaultEngineConfig()
	cfg.Corpus.NumDocs = 2000
	cfg.Corpus.VocabSize = 3000
	engine, err := searchmem.BuildEngine(cfg, func(a searchmem.Access) {
		recorded = append(recorded, a)
	})
	if err != nil {
		panic(err)
	}
	r := engine.NewSession(0, nil).Execute([]uint32{3, 41})
	fmt.Printf("%d results, best doc %d\n", len(r.Docs), r.Docs[0])

	h := searchmem.NewHierarchy(searchmem.HierarchyConfig{
		Cores: 1, ThreadsPerCore: 1,
		L1I: searchmem.CacheConfig{Size: 32 << 10, BlockSize: 64, Assoc: 8},
		L1D: searchmem.CacheConfig{Size: 32 << 10, BlockSize: 64, Assoc: 8},
		L2:  searchmem.CacheConfig{Size: 256 << 10, BlockSize: 64, Assoc: 8},
		L3:  searchmem.CacheConfig{Size: 2 << 20, BlockSize: 64, Assoc: 16},
	})
	for _, a := range recorded {
		h.Access(a)
	}
	fmt.Printf("%d accesses: L1-D hit %.1f%%, L2 hit %.1f%%, %d DRAM accesses\n",
		len(recorded), 100*h.L1DStats().HitRate(), 100*h.L2Stats().HitRate(), h.DRAMAccesses())
	// Output:
	// 10 results, best doc 1604
	// 14311 accesses: L1-D hit 71.2%, L2 hit 47.4%, 2207 DRAM accesses
}

// smallEngine builds a quick engine whose accesses go to rec.
func smallEngine(t *testing.T, rec func(searchmem.Access)) *searchmem.Engine {
	t.Helper()
	cfg := searchmem.DefaultEngineConfig()
	cfg.Corpus.NumDocs = 1500
	cfg.Corpus.VocabSize = 2000
	cfg.Corpus.AvgDocLen = 30
	eng, err := searchmem.BuildEngine(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestPublicCachePath(t *testing.T) {
	var recorded []searchmem.Access
	smallEngine(t, func(a searchmem.Access) { recorded = append(recorded, a) }).
		NewSession(0, nil).Execute([]uint32{1, 2})
	h := searchmem.NewHierarchy(searchmem.HierarchyConfig{
		Cores: 1, ThreadsPerCore: 1,
		L1I: searchmem.CacheConfig{Size: 1 << 10, BlockSize: 64, Assoc: 2},
		L1D: searchmem.CacheConfig{Size: 1 << 10, BlockSize: 64, Assoc: 2},
		L2:  searchmem.CacheConfig{Size: 4 << 10, BlockSize: 64, Assoc: 4},
		L3:  searchmem.CacheConfig{Size: 16 << 10, BlockSize: 64, Assoc: 8},
	})
	// The engine's accesses are data reads and writes: the same one twice
	// is one L1-D miss, then one hit.
	h.Access(recorded[0])
	h.Access(recorded[0])
	if h.L1DStats().TotalHits() != 1 {
		t.Fatal("public hierarchy path broken")
	}
}

func TestPublicEnginePath(t *testing.T) {
	var accesses int
	r := smallEngine(t, func(searchmem.Access) { accesses++ }).NewSession(0, nil).Execute([]uint32{1, 2})
	if len(r.Docs) == 0 {
		t.Fatal("no results")
	}
	if accesses == 0 {
		t.Fatal("no instrumentation")
	}
}

// TestBuildEngineRejectsInvalidConfig: a bad engine config is an error from
// the facade, never a panic.
func TestBuildEngineRejectsInvalidConfig(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		bad := searchmem.DefaultEngineConfig()
		bad.TopK = 0
		eng, err := searchmem.BuildEngine(bad, nil)
		if err == nil || eng != nil {
			t.Fatalf("BuildEngine = %v, %v; want nil and an error", eng, err)
		}
	})
}

func TestPublicModels(t *testing.T) {
	if got := searchmem.Equation1(50, 1); got < 1.34 || got > 1.36 {
		t.Fatalf("Equation1(50 ns) = %v, want -8.62e-3*50 + 1.78", got)
	}
	if searchmem.DefaultMemCost().Dollars(1<<30, 1<<30) <= searchmem.DefaultMemCost().Dollars(0, 2<<30) {
		t.Fatal("near memory must cost more than far")
	}
}

func TestPublicPlatforms(t *testing.T) {
	if searchmem.PLT1().CoresPerSocket != 18 {
		t.Fatal("platform shape wrong")
	}
}

func TestPublicServing(t *testing.T) {
	c := searchmem.NewCluster(searchmem.DefaultClusterConfig(), nil)
	res := c.Serve(searchmem.Query{Terms: []uint32{1}})
	if len(res.Docs) == 0 {
		t.Fatal("serving tree returned nothing")
	}
}

func TestPublicWorkloadMeasure(t *testing.T) {
	m := searchmem.Measure(searchmem.S1Leaf(32), searchmem.MeasureConfig{
		Platform: searchmem.PLT1().ScaleCaches(16),
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget: 200_000, Seed: 1,
	})
	if m.IPC <= 0 {
		t.Fatal("measurement failed")
	}
}

// TestFacadeIsExamplesImportList holds the facade to what the examples use:
// every exported facade name is used by some example, examples import only
// searchmem and the standard library, and no facade function signature
// names an internal package (so every type a caller handles is one the
// facade exports).
func TestFacadeIsExamplesImportList(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "searchmem.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	internal := map[string]bool{} // local names of internal imports
	for _, imp := range facade.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if strings.HasPrefix(path, "searchmem/internal/") {
			internal[filepath.Base(path)] = true
		}
	}
	var exported []string
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			exported = append(exported, d.Name.Name)
			ast.Inspect(d.Type, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && internal[x.Name] {
						t.Errorf("facade func %s names %s.%s: export the type from the facade instead", d.Name.Name, x.Name, sel.Sel.Name)
					}
				}
				return true
			})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported = append(exported, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported = append(exported, n.Name)
						}
					}
				}
			}
		}
	}

	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	used := map[string]bool{}
	for _, file := range mains {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case path == "searchmem":
				local = "searchmem"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			case strings.HasPrefix(path, "searchmem/"), strings.Contains(strings.Split(path, "/")[0], "."):
				t.Errorf("%s imports %s: examples import searchmem and the standard library only", file, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	sort.Strings(exported)
	for _, name := range exported {
		if !used[name] {
			t.Errorf("searchmem.%s is exported but no example uses it", name)
		}
	}
}

// TestREADMEQuotesExample: README.md's library quickstart is Example,
// byte for byte, so the documented snippet compiles and its output is
// checked.
func TestREADMEQuotesExample(t *testing.T) {
	src, err := os.ReadFile("searchmem_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "searchmem_test.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var example string
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Example" {
			example = string(src[fset.Position(fd.Pos()).Offset:fset.Position(fd.End()).Offset])
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if example == "" || !strings.Contains(string(readme), "```go\n"+example+"\n```\n") {
		t.Errorf("README.md must quote func Example from searchmem_test.go verbatim in a go block:\n%s", example)
	}
}
