// Serving-tree runs the Figure 1 serving system: a front-end, a cache-server
// tier, a root, intermediate parents, and leaf nodes — one of which is a
// real instrumented search engine, the rest synthetic shards — under a
// Zipf-popular closed-loop load.
//
// Every leaf carries deterministic fault injection (stragglers, failures,
// flapping shards). Leaf calls have a virtual-time deadline and one hedged
// retry to a sibling shard, so parents merge whatever arrived in time and a
// query that loses a leaf comes back marked partial instead of stalling. A
// tracer records one distributed trace per query (frontend → cache probe →
// root fan-out → parents → leaves → hedges → merge) and the cluster reports
// per-stage latency metrics. Spans carry simulated timestamps and every
// fault stream is seeded, so re-running prints byte-identical output.
//
//	go run ./examples/serving-tree
package main

import (
	"fmt"
	"os"

	"searchmem"
)

func main() {
	cc := searchmem.DefaultClusterConfig()
	cc.Leaves = 12
	cc.Fanout = 4
	cc.LeafDeadlineNS = 8e6 // drop leaves that cannot answer within 8 ms
	cc.HedgeDelayNS = 4e6   // hedge a pending leaf call after 4 ms
	cc.Tracer = new(searchmem.Tracer)
	cluster := searchmem.NewCluster(cc, leaves(cc, buildEngine()))

	fmt.Printf("cluster: %d leaves (leaf 0 a real engine), fanout %d, cache %d slots, deadline %.0f ms, hedge after %.0f ms\n\n",
		cc.Leaves, cc.Fanout, cc.CacheSlots, cc.LeafDeadlineNS/1e6, cc.HedgeDelayNS/1e6)

	// One query end to end, then the same query again from the cache tier.
	serve(cluster, cc.Leaves, 11, 42)
	serve(cluster, cc.Leaves, 11, 42)
	fmt.Println("\nper-query traces (virtual time):")
	if err := searchmem.WriteTraces(os.Stdout, cc.Tracer); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Closed-loop load: 8 clients x 500 queries with Zipf-popular repeats.
	printLoad(searchmem.RunLoad(cluster, 8, 500, 2000, 1.1, 42))
	fmt.Printf("  traced spans           %d\n", cc.Tracer.SpanCount())

	m := cluster.Metrics()
	fmt.Println("\nper-stage metrics:")
	for _, s := range m.Stages() {
		fmt.Printf("  %s\n", s)
	}
	fmt.Printf("\nfault tolerance: %d hedges (%d won), %d leaf failures, %d deadline timeouts\n",
		m.HedgesIssued, m.HedgeWins, m.LeafFailures, m.LeafTimeouts)
}

// buildEngine indexes a small corpus for the one real leaf.
func buildEngine() *searchmem.Engine {
	cfg := searchmem.DefaultEngineConfig()
	cfg.Corpus.NumDocs = 4000
	cfg.Corpus.VocabSize = 6000
	cfg.Corpus.AvgDocLen = 40
	engine, err := searchmem.BuildEngine(cfg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return engine
}

// leaves puts the engine at leaf 0 and synthetic shards everywhere else,
// and wraps each in fault injection: 10% stragglers at 8x latency, 2%
// crashes after doing the work, 1% unreachable and failing fast.
func leaves(cc searchmem.ClusterConfig, engine *searchmem.Engine) []searchmem.Executor {
	execs := make([]searchmem.Executor, cc.Leaves)
	for i := range execs {
		inner := searchmem.NewSyntheticExecutor(uint32(i), cc.TopK)
		if i == 0 {
			inner = &searchmem.EngineExecutor{Session: engine.NewSession(0, nil)}
		}
		execs[i] = &searchmem.FaultyExecutor{
			Inner:    inner,
			SlowProb: 0.10, SlowFactor: 8,
			FailProb: 0.02,
			FlapProb: 0.01,
			Seed:     uint64(i)*7919 + 3,
		}
	}
	return execs
}

// serve runs one query through the tree and prints what came back.
func serve(c *searchmem.Cluster, nLeaves int, terms ...uint32) {
	r := c.Serve(searchmem.Query{Terms: terms})
	fmt.Printf("query %v: %d merged results from %d/%d leaves (partial=%v, from cache=%v), %.2f ms\n",
		terms, len(r.Docs), r.LeavesAnswered, nLeaves, r.Partial, r.FromCache, r.LatencyNS/1e6)
}

// printLoad summarizes a closed-loop run.
func printLoad(st searchmem.LoadStats) {
	fmt.Printf("\nload: %d queries from 8 clients\n", st.Queries)
	fmt.Printf("  cache-server hit rate  %.1f%%\n", 100*float64(st.CacheHits)/float64(st.Queries))
	fmt.Printf("  partial results        %d (%.1f%%)\n",
		st.PartialResults, 100*float64(st.PartialResults)/float64(st.Queries))
	fmt.Printf("  mean latency           %.2f ms\n", st.MeanLatencyNS/1e6)
	fmt.Printf("  p50 / p95 / p99        %.2f / %.2f / %.2f ms  (the deadline pins the tail)\n",
		st.P50NS/1e6, st.P95NS/1e6, st.P99NS/1e6)
	fmt.Printf("  modeled QPS            %.0f\n", st.QPS)
}
