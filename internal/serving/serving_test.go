package serving

import (
	"fmt"
	"math"
	"runtime"
	"strings"
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
	if m := c.Metrics(); m.CacheHits != 1 || m.Queries != 2 {
		t.Fatalf("cache hits %d of %d queries, want 1 of 2", m.CacheHits, m.Queries)
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
	if q := c.Metrics().Queries; q != 400 {
		t.Fatalf("queries = %d", q)
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
	exec := &EngineExecutor{Session: eng.NewSession(0, nil)}
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

// TestRunLoadPanics pins the closed loop's validation contract. More
// clients than int32 ids must be rejected before the population is laid
// out: 2^31 clients would be a 64 GiB queue and stream array.
func TestRunLoadPanics(t *testing.T) {
	tooMany := math.MaxInt32
	tooMany++ // wraps negative where int is 32 bits, which is rejected too
	cases := []struct {
		name                    string
		clients, queries, vocab int
		skew                    float64
	}{
		{"zero clients", 0, 1, 10, 1.1},
		{"zero queries per client", 1, 0, 10, 1.1},
		{"negative queries per client", 1, -3, 10, 1.1},
		{"zero vocab", 1, 1, 0, 1.1},
		{"zero skew", 1, 1, 10, 0},
		// NaN passes a skew <= 0 test, and its draws never end.
		{"NaN skew", 1, 1, 10, math.NaN()},
		{"more clients than int32 ids", tooMany, 1, 10, 1.1},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: RunLoad did not panic", tc.name)
				}
				if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "serving: ") {
					t.Fatalf("%s: panicked with %v, not a validation message", tc.name, r)
				}
				if tc.clients == tooMany && !strings.Contains(fmt.Sprint(r), "int32 client ids") {
					t.Fatalf("%s: panicked with %q, not the client-limit message", tc.name, r)
				}
			}()
			RunLoad(testCluster(0), tc.clients, tc.queries, tc.vocab, tc.skew, 1)
		}()
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Fatalf("%s: allocated %d B before panicking", tc.name, alloc)
		}
	}
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
