// Quickstart is the library tour of the paper's §II leaf characterization:
// build a small instrumented search engine, execute queries, replay the
// recorded memory trace through a simulated cache hierarchy, and then run
// the calibrated S1-leaf workload on a simulated PLT1 (Haswell-class)
// platform to print its Table I metrics and Figure 3 Top-Down breakdown.
//
//	go run ./examples/quickstart          # quick, shrunken leaf
//	go run ./examples/quickstart -full    # full calibrated scale (slower)
package main

import (
	"flag"
	"fmt"
	"os"

	"searchmem"
)

func main() {
	full := flag.Bool("full", false, "run the S1 leaf at full calibrated scale")
	flag.Parse()

	// Every arena read/write the engine performs is delivered here.
	var recorded []searchmem.Access
	engine, err := searchmem.BuildEngine(smallCorpus(), func(a searchmem.Access) {
		recorded = append(recorded, a)
	})
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
	var perSeg [searchmem.NumSegments]int
	for _, a := range recorded {
		perSeg[a.Seg]++
	}
	fmt.Printf("\nrecorded %d memory accesses:\n", len(recorded))
	for seg, n := range perSeg {
		fmt.Printf("  %-6s %d\n", searchmem.Segment(seg), n)
	}

	h := replay(recorded)
	fmt.Printf("\ncache replay: L1-D hit %.1f%%, L2 hit %.1f%%, L3 hit %.1f%%, DRAM accesses %d\n",
		100*h.L1DStats().HitRate(), 100*h.L2Stats().HitRate(),
		100*h.L3Stats().HitRate(), h.DRAMAccesses())

	// The calibrated leaf: the same engine at production-like scale, with
	// the synthetic code segment that drives the instruction-side metrics.
	shrink, budget := 8, int64(1_000_000)
	if *full {
		shrink, budget = 1, 6_000_000
	}
	fmt.Printf("\nbuilding S1-leaf workload (shrink %d)...\n", shrink)
	leaf := searchmem.S1Leaf(shrink)
	fmt.Printf("measuring %d instructions on PLT1...\n\n", budget)
	report(measure(leaf, budget))
}

// smallCorpus is a 5k-document, 8k-term engine: big enough for real
// posting lists, small enough to build in a fraction of a second.
func smallCorpus() searchmem.EngineConfig {
	cfg := searchmem.DefaultEngineConfig()
	cfg.Corpus.NumDocs = 5000
	cfg.Corpus.VocabSize = 8000
	cfg.Corpus.AvgDocLen = 60
	return cfg
}

// replay runs a recorded trace through a small L1/L2/L3 hierarchy.
func replay(recorded []searchmem.Access) *searchmem.Hierarchy {
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
	return h
}

// measure runs the leaf single-threaded on PLT1 and reduces it through the
// calibrated core model.
func measure(leaf searchmem.Runner, budget int64) searchmem.Metrics {
	return searchmem.Measure(leaf, searchmem.MeasureConfig{
		Platform: searchmem.PLT1(),
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget:         budget,
		Seed:           1,
		WarmupFraction: 2.0,
	})
}

// report prints the leaf's Table I metrics and Top-Down breakdown beside
// the paper's fleet numbers.
func report(m searchmem.Metrics) {
	fmt.Println("Table I metrics (paper S1 leaf fleet: 1.34 / 2.20 / 11.83 / 8.98):")
	fmt.Printf("  per-core IPC     %6.2f\n", m.IPC)
	fmt.Printf("  L3$ load MPKI    %6.2f\n", m.L3LoadMPKI)
	fmt.Printf("  L2$ instr MPKI   %6.2f\n", m.L2InstrMPKI)
	fmt.Printf("  branch MPKI      %6.2f\n", m.BranchMPKI)

	fmt.Println("\nTop-Down breakdown (paper: 32 / 15.4 / 13.8 / 9.7 / 8.5 / 20.5):")
	bd := m.Breakdown
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"Retiring", bd.Retiring},
		{"Bad Speculation", bd.BadSpec},
		{"FrontEnd: Latency", bd.FELatency},
		{"FrontEnd: BW", bd.FEBandwidth},
		{"BackEnd: Core", bd.BECore},
		{"BackEnd: Memory", bd.BEMemory},
	} {
		fmt.Printf("  %-18s %5.1f%%\n", row.name, 100*row.v)
	}

	fmt.Printf("\nmemory system: L3 hit %.1f%%, AMAT %.1f ns, DRAM %.2f accesses/KI\n",
		100*m.L3HitRate, m.AMATNS, m.DRAMPerKI)
	fmt.Printf("workload: %d queries, %d postings decoded, %d instructions\n",
		m.Run.Queries, m.Run.PostingsDecoded, m.Instructions)
}
