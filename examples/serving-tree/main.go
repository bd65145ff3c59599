// Serving-tree runs the Figure 1 serving system: a front-end, a cache-server
// tier, a root, intermediate parents, and leaf nodes — one of which is a
// real instrumented search engine — under a Zipf-popular closed-loop load.
//
//	go run ./examples/serving-tree
package main

import (
	"fmt"
	"os"

	"searchmem"
	"searchmem/internal/serving"
)

func main() {
	// One real engine leaf (the rest are synthetic executors).
	space := searchmem.NewSpace(nil)
	cfg := searchmem.DefaultEngineConfig()
	cfg.Corpus.NumDocs = 4000
	cfg.Corpus.VocabSize = 6000
	cfg.Corpus.AvgDocLen = 40
	engine, err := searchmem.BuildEngine(cfg, space, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	engineLeaf := &serving.EngineExecutor{
		Session:    engine.NewSession(0, nil),
		NSPerInstr: 0.31, // ~1/(IPC 1.28 x 2.5 GHz)
	}

	cc := searchmem.DefaultClusterConfig()
	cc.Leaves = 12
	cc.Fanout = 4
	cluster := searchmem.NewCluster(cc, []serving.Executor{engineLeaf})

	fmt.Printf("cluster: %d leaves, fanout %d, cache %d slots\n\n",
		cc.Leaves, cc.Fanout, cc.CacheSlots)

	// A single query end to end.
	r := cluster.Serve(searchmem.Query{Terms: []uint32{11, 42}})
	fmt.Printf("single query: %d merged results, %.2f ms modeled latency\n",
		len(r.Docs), r.LatencyNS/1e6)

	// Closed-loop load: 8 clients x 500 queries with Zipf-popular repeats.
	st := serving.RunLoad(cluster, 8, 500, 2000, 1.1, 42)
	fmt.Printf("\nload: %d queries from 8 clients\n", st.Queries)
	fmt.Printf("  cache-server hit rate  %.1f%%\n", 100*float64(st.CacheHits)/float64(st.Queries))
	fmt.Printf("  mean latency           %.2f ms\n", st.MeanLatencyNS/1e6)
	fmt.Printf("  p50 / p95 / p99        %.2f / %.2f / %.2f ms\n",
		st.P50NS/1e6, st.P95NS/1e6, st.P99NS/1e6)
	fmt.Printf("  modeled QPS            %.0f\n", st.QPS)

	fmt.Println("\nper-stage metrics:")
	for _, s := range cluster.Metrics().Stages() {
		fmt.Printf("  %s\n", s)
	}
}
