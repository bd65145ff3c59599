package workload

import (
	"fmt"

	"searchmem/internal/codegen"
	"searchmem/internal/search"
)

// SweepScale is the capacity-sweep scale factor (DESIGN.md §6): sweep
// profiles shrink every working set by this factor, and sweep experiments
// multiply capacity axes by it when reporting in paper units.
const SweepScale = 64

// PaperUnits converts a simulated capacity to paper-equivalent bytes for
// sweep-profile results.
func PaperUnits(simBytes int64) int64 { return simBytes * SweepScale }

// SimUnits converts a paper capacity to simulated bytes for sweep-profile
// experiments.
func SimUnits(paperBytes int64) int64 { return paperBytes / SweepScale }

// searchCode returns a search-service code profile. randomFrac sets the
// share of data-dependent (unpredictable) branches — the knob behind the
// branch-MPKI differences between services and roles in Table I. shrink
// divides the text size (tests use it for speed).
func searchCode(randomFrac float64, numFuncs int, seed uint64, shrink int) codegen.Config {
	c := codegen.DefaultConfig()
	c.NumFuncs = numFuncs / shrink
	if c.NumFuncs < 16 {
		c.NumFuncs = 16
	}
	c.LoopFrac = 0.15
	c.BiasedFrac = 1 - c.LoopFrac - randomFrac
	c.FuncZipfSkew = 0.25
	c.BlocksPerFunc = 20
	if c.BiasedFrac < 0 {
		panic(fmt.Sprintf("workload: random fraction %v too large", randomFrac))
	}
	c.Seed = seed
	return c
}

// searchCorpus scales a leaf corpus. shrink divides document and vocabulary
// counts.
func searchCorpus(docs, vocab, avgLen int, seed uint64, shrink int) search.CorpusConfig {
	d, v := docs/shrink, vocab/shrink
	if d < 500 {
		d = 500
	}
	if v < 1000 {
		v = 1000
	}
	return search.CorpusConfig{
		NumDocs:   d,
		VocabSize: v,
		AvgDocLen: avgLen,
		Seed:      seed,
	}
}

// leafWorkload assembles a leaf-role profile from per-service knobs.
func leafWorkload(name string, docs int, randomBranchFrac, querySkew float64, seed uint64, shrink int) SearchWorkload {
	cfg := search.DefaultConfig()
	// Document count sizes the shared heap structures (metadata, norms,
	// dictionary): together with 16 threads' accumulators they form the
	// ~20 MiB hot working set whose capture between 13 and 45 MiB of L3
	// drives the paper's cache-for-cores trade-off (Figures 9-11).
	cfg.Corpus = searchCorpus(docs, docs/3, 64, seed, shrink)
	cfg.MaxPostingsPerTerm = 4096
	cfg.AccumSlots = 1 << 15
	return SearchWorkload{
		WLName: name,
		Engine: cfg,
		Code:   searchCode(randomBranchFrac, 8600, seed^0xc0de, shrink),
		// Near-uniform term popularity: upstream cache servers have
		// absorbed the popular queries (Figure 1), leaving little reuse
		// in the leaf's shard accesses.
		QueryTermSkew: querySkew,
		MinTerms:      1,
		MaxTerms:      3,
		StackBytes:    64 << 10,
		WarmQueries:   64/shrink + 4,
	}
}

// S1Leaf is the paper's primary workload: the biggest consumer of search
// cycles in the fleet, measured on PLT1. Table I anchors (fleet): IPC 1.34,
// L3 load MPKI 2.20, L2 instr MPKI 11.83, branch MPKI 8.98.
func S1Leaf(shrink int) SearchWorkload {
	return leafWorkload("S1-leaf", 600_000, 0.065, 0.45, 0x51ea1, shrink)
}

// S2Leaf is the second service: lower branch MPKI (6.17), higher IPC (1.63).
func S2Leaf(shrink int) SearchWorkload {
	return leafWorkload("S2-leaf", 520_000, 0.040, 0.55, 0x52ea2, shrink)
}

// S3Leaf is the third service: branch MPKI 7.99, L2I MPKI 14.10.
func S3Leaf(shrink int) SearchWorkload {
	w := leafWorkload("S3-leaf", 560_000, 0.055, 0.42, 0x53ea3, shrink)
	w.Code.NumFuncs = w.Code.NumFuncs * 5 / 4 // larger code base
	return w
}

// rootWorkload assembles a root-role profile: roots aggregate and re-rank
// leaf results — less shard scanning, heavier heap-resident merge work,
// fewer data-dependent branches, and lower IPC (Table I: 1.03-1.14) from
// higher L3 data pressure.
func rootWorkload(name string, randomBranchFrac float64, seed uint64, shrink int) SearchWorkload {
	cfg := search.DefaultConfig()
	cfg.Corpus = searchCorpus(600_000, 150_000, 24, seed, shrink)
	cfg.MaxPostingsPerTerm = 1024
	cfg.TopK = 20
	cfg.FeatureBytes = 256
	cfg.AccumSlots = 1 << 15
	cfg.InstrsPerQuery = 4000
	cfg.InstrsPerScore = 80
	code := searchCode(randomBranchFrac, 4096, seed^0xc0de, shrink)
	// Root request handling is straighter-line than leaf scoring: longer
	// basic blocks and fewer data-dependent branches (Table I: root branch
	// MPKI 4.7-5.4 vs leaf 6.2-9.0).
	code.InstrsPerBlock = 9
	return SearchWorkload{
		WLName: name,
		Engine: cfg,
		Code:   code,
		// Root aggregation work exposes less memory-level parallelism
		// than leaf posting scans, which is what drags root IPC to the
		// 1.03-1.14 range of Table I.
		MemOverlapFactor: 0.24,
		QueryTermSkew:    0.42,
		MinTerms:         2,
		MaxTerms:         4,
		StackBytes:       64 << 10,
		WarmQueries:      64/shrink + 4,
	}
}

// S1Root .. S3Root: root-role columns of Table I (branch MPKI 4.7-5.4).
func S1Root(shrink int) SearchWorkload { return rootWorkload("S1-root", 0.020, 0x51007, shrink) }

// S2Root is service S2's root role.
func S2Root(shrink int) SearchWorkload { return rootWorkload("S2-root", 0.022, 0x52007, shrink) }

// S3Root is service S3's root role.
func S3Root(shrink int) SearchWorkload { return rootWorkload("S3-root", 0.026, 0x53007, shrink) }

// S1LeafSweep is the capacity-sweep variant of S1-leaf: all working sets at
// 1/SweepScale of paper scale (heap working set targets 1 GiB/64 = 16 MiB),
// used by the L3/L4 capacity-sweep experiments whose axes are reported in
// paper units.
func S1LeafSweep(shrink int) SearchWorkload {
	cfg := search.DefaultConfig()
	cfg.Corpus = searchCorpus(700_000, 160_000, 56, 0x51eaf, shrink)
	cfg.MaxPostingsPerTerm = 4096
	cfg.AccumSlots = 1 << 14
	cfg.FeatureBytes = 32
	return SearchWorkload{
		WLName: "S1-leaf-sweep",
		Engine: cfg,
		// Code scaled with the sweep: 4 MiB / 64 = 64 KiB.
		Code: searchCode(0.105, 8600/SweepScale, 0x5c0de, shrink),
		// Near-uniform term popularity: intermediate cache servers have
		// already absorbed the popular queries, leaving little locality
		// in the leaf's query stream (Figure 1 discussion, §III-B).
		QueryTermSkew: 0.55,
		MinTerms:      1,
		MaxTerms:      3,
		StackBytes:    16 << 10,
		WarmQueries:   64/shrink + 4,
	}
}

// specCode builds a SPEC-like code profile.
func specCode(numFuncs, instrsPerBlock int, randomFrac float64, seed uint64) codegen.Config {
	c := codegen.DefaultConfig()
	c.NumFuncs = numFuncs
	c.InstrsPerBlock = instrsPerBlock
	// SPEC codes are loopier, more predictable, and hotter than service
	// code: long trip counts, strongly biased branches, tight hot set.
	c.LoopFrac = 0.30
	c.BiasedFrac = 1 - c.LoopFrac - randomFrac
	c.BiasedTakenProb = 0.995
	c.LoopIterations = 32
	c.FuncZipfSkew = 0.9
	c.Seed = seed
	return c
}

// SPECPerlbench models 400.perlbench: compute-bound, small working sets,
// well-predicted branches. Table I: IPC 2.72, L3 0.48, L2I 0.58, br 1.80.
func SPECPerlbench() SyntheticWorkload {
	return SyntheticWorkload{
		WLName:           "400.perlbench",
		Code:             specCode(220, 7, 0.008, 0x400),
		HeapBytes:        2 << 20,
		HeapSkew:         1.8,
		LoadsPerKI:       280,
		StoresPerKI:      120,
		MemOverlapFactor: 0.30,
		Seed:             0x400,
	}
}

// SPECMcf models 429.mcf: pointer-chasing over a huge graph; misses
// serialize. Table I: IPC 0.15, L3 56.92, L2I 0.31, br 11.32.
func SPECMcf() SyntheticWorkload {
	return SyntheticWorkload{
		WLName:           "429.mcf",
		Code:             specCode(40, 7, 0.14, 0x429),
		HeapBytes:        420 << 20,
		HeapSkew:         0.90,
		LoadsPerKI:       120,
		StoresPerKI:      60,
		MemOverlapFactor: 0.60,
		Seed:             0x429,
	}
}

// SPECGobmk models 445.gobmk: the most code-intensive and branchy SPEC
// application. Table I: IPC 1.43, L3 0.29, L2I 3.02, br 18.40.
func SPECGobmk() SyntheticWorkload {
	return SyntheticWorkload{
		WLName:           "445.gobmk",
		Code:             specCode(1350, 5, 0.28, 0x445),
		HeapBytes:        3 << 20,
		HeapSkew:         1.6,
		LoadsPerKI:       200,
		StoresPerKI:      100,
		MemOverlapFactor: 0.25,
		Seed:             0x445,
	}
}

// SPECOmnetpp models 471.omnetpp: discrete-event simulation with a large
// heap. Table I: IPC 0.30, L3 24.92, L2I 0.63, br 5.32.
func SPECOmnetpp() SyntheticWorkload {
	return SyntheticWorkload{
		WLName:           "471.omnetpp",
		Code:             specCode(120, 7, 0.058, 0x471),
		HeapBytes:        160 << 20,
		HeapSkew:         1.12,
		LoadsPerKI:       230,
		StoresPerKI:      130,
		MemOverlapFactor: 0.32,
		Seed:             0x471,
	}
}

// CloudSuiteWebSearch models the Lucene-based CloudSuite v3 Web Search:
// structurally a search engine but far smaller and cache-resident (~1% of
// peak DRAM bandwidth vs production's 40-50%). Table I: IPC 1.61, L3 0.03,
// L2I 0.28, br 0.51.
func CloudSuiteWebSearch() SyntheticWorkload {
	return SyntheticWorkload{
		WLName:           "cloudsuite-websearch",
		Code:             specCode(160, 8, 0.0002, 0xc1d),
		HeapBytes:        256 << 10,
		HeapSkew:         1.2,
		Scan:             true,
		LoadsPerKI:       260,
		StoresPerKI:      90,
		MemOverlapFactor: 0.25,
		Seed:             0xc1d,
	}
}
