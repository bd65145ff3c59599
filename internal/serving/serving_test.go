package serving

import (
	"sync"
	"testing"

	"searchmem/internal/memsim"
	"searchmem/internal/search"
)

func testCluster(cacheSlots int) *Cluster {
	cfg := DefaultConfig()
	cfg.CacheSlots = cacheSlots
	return NewCluster(cfg, nil)
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Leaves: 4, Fanout: 0, TopK: 10},
		{Leaves: 4, Fanout: 2, TopK: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Leaves = 10
	cfg.Fanout = 4
	c := NewCluster(cfg, nil)
	if len(c.parents) != 3 { // 4+4+2
		t.Fatalf("parents = %d, want 3", len(c.parents))
	}
	total := 0
	for _, p := range c.parents {
		total += len(p.leaves)
	}
	if total != 10 {
		t.Fatalf("leaves = %d", total)
	}
}

func TestServeBasics(t *testing.T) {
	c := testCluster(0)
	r := c.Serve(Query{Terms: []uint32{1, 2}})
	if len(r.Docs) != c.cfg.TopK {
		t.Fatalf("got %d results", len(r.Docs))
	}
	if r.LatencyNS <= 0 {
		t.Fatal("no latency modeled")
	}
	if r.FromCache {
		t.Fatal("uncached cluster returned cache hit")
	}
	// Scores sorted best-first.
	for i := 1; i < len(r.Scores); i++ {
		if r.Scores[i] > r.Scores[i-1] {
			t.Fatalf("scores unsorted: %v", r.Scores)
		}
	}
}

func TestServeDeterministicResults(t *testing.T) {
	a := testCluster(0).Serve(Query{Terms: []uint32{7, 9}})
	b := testCluster(0).Serve(Query{Terms: []uint32{7, 9}})
	if len(a.Docs) != len(b.Docs) {
		t.Fatal("result sizes differ")
	}
	for i := range a.Docs {
		if a.Docs[i] != b.Docs[i] {
			t.Fatal("results nondeterministic")
		}
	}
}

func TestCacheShortCircuit(t *testing.T) {
	c := testCluster(1024)
	q := Query{Terms: []uint32{5, 6}}
	first := c.Serve(q)
	second := c.Serve(q)
	if first.FromCache {
		t.Fatal("cold cache hit")
	}
	if !second.FromCache {
		t.Fatal("repeat query missed cache")
	}
	if second.LatencyNS >= first.LatencyNS {
		t.Fatalf("cache hit not faster: %v vs %v", second.LatencyNS, first.LatencyNS)
	}
	for i := range first.Docs {
		if second.Docs[i] != first.Docs[i] {
			t.Fatal("cached result differs")
		}
	}
	if c.CacheHits != 1 || c.Queries != 2 {
		t.Fatalf("cache hits %d of %d queries, want 1 of 2", c.CacheHits, c.Queries)
	}
}

func TestMergePrefersBestScores(t *testing.T) {
	// With TopK=3 and many leaves, merged scores must dominate any single
	// leaf's weakest results.
	cfg := DefaultConfig()
	cfg.TopK = 3
	c := NewCluster(cfg, nil)
	r := c.Serve(Query{Terms: []uint32{11}})
	leafDocs, leafScores := make([]uint32, 3), make([]float32, 3)
	NewSyntheticExecutor(0, 3).SearchBuf([]uint32{11}, leafDocs, leafScores)
	if r.Scores[0] < leafScores[0] {
		t.Fatalf("merged best %v below leaf 0 best %v", r.Scores[0], leafScores[0])
	}
}

func TestConcurrentServe(t *testing.T) {
	c := testCluster(4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Serve(Query{Terms: []uint32{uint32(g), uint32(i % 10)}})
			}
		}(g)
	}
	wg.Wait()
	if c.Queries != 400 {
		t.Fatalf("queries = %d", c.Queries)
	}
}

func TestRunLoad(t *testing.T) {
	c := testCluster(4096)
	st := RunLoad(c, 4, 100, 500, 1.1, 42)
	if st.Queries != 400 {
		t.Fatalf("queries %d", st.Queries)
	}
	if st.CacheHits == 0 {
		t.Fatal("Zipf-popular load produced no cache hits")
	}
	if st.QPS <= 0 || st.MeanLatencyNS <= 0 {
		t.Fatalf("throughput stats: %+v", st)
	}
	if !(st.P50NS <= st.P95NS && st.P95NS <= st.P99NS) {
		t.Fatalf("percentiles unordered: %+v", st)
	}
}

func TestCacheReducesMeanLatency(t *testing.T) {
	with := RunLoad(testCluster(8192), 2, 200, 100, 1.2, 7)
	without := RunLoad(testCluster(0), 2, 200, 100, 1.2, 7)
	if with.MeanLatencyNS >= without.MeanLatencyNS {
		t.Fatalf("cache tier did not cut latency: %v vs %v",
			with.MeanLatencyNS, without.MeanLatencyNS)
	}
}

func TestEngineExecutor(t *testing.T) {
	cfg := search.DefaultConfig()
	cfg.Corpus.NumDocs = 2000
	cfg.Corpus.VocabSize = 3000
	cfg.Corpus.AvgDocLen = 30
	space := memsim.NewSpace(nil)
	eng, err := search.Build(cfg, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := &EngineExecutor{Session: eng.NewSession(0, nil), NSPerInstr: 0.3}
	docs, scores := make([]uint32, 16), make([]float32, 16)
	n, lat, err := exec.SearchBuf([]uint32{1, 2}, docs, scores)
	if err != nil || n == 0 {
		t.Fatalf("engine leaf: n=%d err=%v", n, err)
	}
	if lat <= 0 {
		t.Fatal("no latency modeled")
	}
	// Wire it as a leaf.
	cc := DefaultConfig()
	cc.Leaves = 2
	cluster := NewCluster(cc, []Executor{exec})
	r := cluster.Serve(Query{Terms: []uint32{1, 2}})
	if len(r.Docs) == 0 {
		t.Fatal("no merged results with engine leaf")
	}
}

func TestRunLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad load accepted")
		}
	}()
	RunLoad(testCluster(0), 0, 1, 1, 1, 1)
}

func TestQueueingInflatesLatencyUnderLoad(t *testing.T) {
	mk := func(clients int) LoadStats {
		cfg := DefaultConfig()
		cfg.CacheSlots = 0
		cfg.LeafCapacity = 4
		c := NewCluster(cfg, nil)
		return RunLoad(c, clients, 120, 5000, 0.6, 11)
	}
	light, heavy := mk(1), mk(16)
	if heavy.MeanLatencyNS <= light.MeanLatencyNS {
		t.Fatalf("no congestion: %v vs %v", heavy.MeanLatencyNS, light.MeanLatencyNS)
	}
	if heavy.P99NS <= light.P99NS {
		t.Fatalf("tail did not grow: %v vs %v", heavy.P99NS, light.P99NS)
	}
}

func TestQueueingDisabledByDefault(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.LeafCapacity != 0 {
		t.Fatal("queueing should be opt-in")
	}
	c := NewCluster(cfg, nil)
	r := c.Serve(Query{Terms: []uint32{1}})
	if r.LatencyNS <= 0 {
		t.Fatal("latency missing")
	}
}
