package searchmem

import (
	"strings"
	"testing"

	"searchmem/internal/codegen"
	"searchmem/internal/trace"
)

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	if _, err := RunExperiment("does-not-exist", FastOptions()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentTable2(t *testing.T) {
	out, err := RunExperiment("table2", FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Haswell") || !strings.Contains(out, "POWER8") {
		t.Fatalf("table2 output wrong:\n%s", out)
	}
}

func TestPublicCachePath(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{
		Cores: 1, ThreadsPerCore: 1,
		L1I: CacheConfig{Size: 1 << 10, BlockSize: 64, Assoc: 2},
		L1D: CacheConfig{Size: 1 << 10, BlockSize: 64, Assoc: 2},
		L2:  CacheConfig{Size: 4 << 10, BlockSize: 64, Assoc: 4},
		L3:  CacheConfig{Size: 16 << 10, BlockSize: 64, Assoc: 8},
	})
	h.Access(Access{Addr: 0x100, Size: 8, Seg: Heap, Kind: Read})
	h.Access(Access{Addr: 0x100, Size: 8, Seg: Heap, Kind: Read})
	if h.L1DStats().TotalHits() != 1 {
		t.Fatal("public hierarchy path broken")
	}
}

func TestPublicEnginePath(t *testing.T) {
	var accesses int
	space := NewSpace(func(Access) { accesses++ })
	cfg := DefaultEngineConfig()
	cfg.Corpus.NumDocs = 1500
	cfg.Corpus.VocabSize = 2000
	cfg.Corpus.AvgDocLen = 30
	eng, err := BuildEngine(cfg, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession(0, nil)
	r := sess.Execute([]uint32{1, 2})
	if len(r.Docs) == 0 {
		t.Fatal("no results")
	}
	if accesses == 0 {
		t.Fatal("no instrumentation")
	}
}

// TestBuildEngineRejectsInvalidConfig: a bad engine or code-model config is
// an error from the facade, never a panic.
func TestBuildEngineRejectsInvalidConfig(t *testing.T) {
	badEngine := DefaultEngineConfig()
	badEngine.TopK = 0
	badCode := codegen.DefaultConfig()
	badCode.NumFuncs = 0
	cases := []struct {
		name string
		cfg  EngineConfig
		code *codegen.Config
	}{
		{"engine", badEngine, nil},
		{"code", DefaultEngineConfig(), &badCode},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, err := BuildEngine(c.cfg, NewSpace(nil), c.code)
			if err == nil || eng != nil {
				t.Fatalf("BuildEngine = %v, %v; want nil and an error", eng, err)
			}
		})
	}
}

func TestPublicModels(t *testing.T) {
	if got := AMATL3(1, 14, 65); got != 14 {
		t.Fatalf("AMATL3 = %v", got)
	}
	if AMATWithL4(0, 1, 14, 40, 65, 0) != 40 {
		t.Fatal("AMATWithL4 wrong")
	}
	if Equation1.Eval(50) <= 0 {
		t.Fatal("Equation1 unusable")
	}
	if BaselineL4(1<<30).HitLatencyNS != 40 {
		t.Fatal("BaselineL4 wrong")
	}
}

func TestPublicPlatforms(t *testing.T) {
	if PLT1().CoresPerSocket != 18 || PLT2().CoresPerSocket != 12 {
		t.Fatal("platform shapes wrong")
	}
}

func TestPublicServing(t *testing.T) {
	c := NewCluster(DefaultClusterConfig(), nil)
	res := c.Serve(Query{Terms: []uint32{1}})
	if len(res.Docs) == 0 {
		t.Fatal("serving tree returned nothing")
	}
}

func TestPublicWorkloadMeasure(t *testing.T) {
	r := S1Leaf(32).Build()
	m := Measure(r, MeasureConfig{
		Platform: PLT1().ScaleCaches(16),
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget: 200_000, Seed: 1,
	})
	if m.IPC <= 0 {
		t.Fatal("measurement failed")
	}
}

func TestSharedContext(t *testing.T) {
	ctx := NewExperimentContext(FastOptions())
	a, err := RunExperimentIn(ctx, "fig2b")
	if err != nil || len(a) == 0 {
		t.Fatalf("fig2b: %v", err)
	}
	if _, err := RunExperimentIn(ctx, "zzz"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestPublicStackDist(t *testing.T) {
	sd := NewStackDist(64)
	sd.Observe(Access{Addr: 0, Size: 8, Seg: Heap})
	sd.Observe(Access{Addr: 0, Size: 8, Seg: Heap})
	if sd.Hits(trace.Heap, 64) != 1 {
		t.Fatal("stack distance path broken")
	}
	ws := NewWorkingSet(64)
	ws.Observe(Access{Addr: 0, Size: 8, Seg: Heap})
	if ws.Bytes(Heap) != 64 {
		t.Fatal("working set path broken")
	}
}
