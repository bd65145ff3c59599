// Quickstart: build a small instrumented search engine, execute queries,
// and replay the recorded memory trace through a simulated cache hierarchy.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"searchmem"
)

func main() {
	// Every arena read/write the engine performs is delivered here.
	var recorded []searchmem.Access
	space := searchmem.NewSpace(func(a searchmem.Access) {
		recorded = append(recorded, a)
	})

	// A small corpus: 5k synthetic documents, 8k-term vocabulary.
	cfg := searchmem.DefaultEngineConfig()
	cfg.Corpus.NumDocs = 5000
	cfg.Corpus.VocabSize = 8000
	cfg.Corpus.AvgDocLen = 60
	engine, err := searchmem.BuildEngine(cfg, space, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	session := engine.NewSession(0, nil)

	// Execute a few queries.
	for _, terms := range [][]uint32{{3, 41}, {7}, {3, 41}} {
		r := session.Execute(terms)
		fmt.Printf("query %v -> %d results (cache hit: %v)\n", terms, len(r.Docs), r.FromCache)
		for i, doc := range r.Docs {
			if i >= 3 {
				break
			}
			fmt.Printf("  #%d doc %d", i+1, doc)
			if r.Scores != nil {
				fmt.Printf(" (score %.3f)", r.Scores[i])
			}
			fmt.Println()
		}
	}

	// What did those queries do to memory?
	perSeg := map[searchmem.Segment]int{}
	for _, a := range recorded {
		perSeg[a.Seg]++
	}
	fmt.Printf("\nrecorded %d memory accesses:\n", len(recorded))
	for _, seg := range []searchmem.Segment{searchmem.Heap, searchmem.Shard, searchmem.Stack, searchmem.Code} {
		fmt.Printf("  %-6s %d\n", seg, perSeg[seg])
	}

	// Replay the trace through a small two-level-plus-L3 hierarchy.
	h := searchmem.NewHierarchy(searchmem.HierarchyConfig{
		Cores: 1, ThreadsPerCore: 1,
		L1I: searchmem.CacheConfig{Name: "L1-I", Size: 32 << 10, BlockSize: 64, Assoc: 8},
		L1D: searchmem.CacheConfig{Name: "L1-D", Size: 32 << 10, BlockSize: 64, Assoc: 8},
		L2:  searchmem.CacheConfig{Name: "L2", Size: 256 << 10, BlockSize: 64, Assoc: 8},
		L3:  searchmem.CacheConfig{Name: "L3", Size: 2 << 20, BlockSize: 64, Assoc: 16},
	})
	for _, a := range recorded {
		h.Access(a)
	}
	fmt.Printf("\ncache replay: L1-D hit %.1f%%, L2 hit %.1f%%, L3 hit %.1f%%, DRAM accesses %d\n",
		100*h.L1DStats().HitRate(), 100*h.L2Stats().HitRate(),
		100*h.L3Stats().HitRate(), h.DRAMAccesses())
}
