// Command cachesim replays a binary trace file (produced by cmd/tracegen)
// through a configurable cache hierarchy and prints per-level, per-segment
// statistics — the standalone trace-driven simulator of the paper's §III-A
// methodology.
//
// Usage:
//
//	cachesim -trace leaf.smtr -l3 45 -ways 20
//	cachesim -trace leaf.smtr -l3 23 -l4 1024 -scale 64
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"searchmem/internal/cache"
	"searchmem/internal/trace"
)

func main() {
	var (
		path    = flag.String("trace", "", "trace file from tracegen")
		cores   = flag.Int("cores", 1, "simulated cores")
		smt     = flag.Int("smt", 1, "threads per core")
		l1      = flag.Int64("l1", 32, "L1 size KiB (I and D each)")
		l2      = flag.Int64("l2", 256, "L2 size KiB")
		l3      = flag.Int64("l3", 45, "L3 size MiB")
		ways    = flag.Int("ways", 0, "CAT: allocatable L3 ways (0 = all 20)")
		l4      = flag.Int64("l4", 0, "optional L4 size MiB (0 = none)")
		scale   = flag.Int64("scale", 1, "divide all capacities by this factor")
		block   = flag.Int("block", 64, "block size bytes")
		incl    = flag.Bool("inclusive", true, "inclusive L3")
		instrKI = flag.Int64("instructions", 0, "instruction count for MPKI (0 = per-access rates only)")
		policy  = flag.String("policy", "", "L3 replacement policy: "+cache.PolicyNames()+" (empty = LRU; unknown names are an error)")
		seed    = flag.Uint64("seed", 1, "seed for stochastic replacement policies")
		predict = flag.Bool("predict", false, "attach the cache-level predictor and report its probe accounting")
	)
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "usage: cachesim -trace <file> [flags]")
		os.Exit(2)
	}
	// Reject numbers the capacity arithmetic below cannot take (it divides
	// by -scale and -block) before doing any of it.
	need := func(ok bool, flag, want string, got int64) {
		if !ok {
			fmt.Fprintf(os.Stderr, "cachesim: %s must be %s, got %d\n", flag, want, got)
			os.Exit(2)
		}
	}
	need(*scale >= 1, "-scale", "at least 1", *scale)
	need(*block >= 8 && *block&(*block-1) == 0, "-block", "a power of two, at least 8", int64(*block))
	need(*l1 > 0, "-l1", "positive", *l1)
	need(*l2 > 0, "-l2", "positive", *l2)
	need(*l3 > 0, "-l3", "positive", *l3)
	need(*l4 >= 0, "-l4", "non-negative", *l4)
	// The byte count of each capacity must fit an int64.
	const maxKiB, maxMiB = math.MaxInt64 >> 10, math.MaxInt64 >> 20
	for _, c := range []struct {
		flag   string
		v, max int64
	}{{"-l1", *l1, maxKiB}, {"-l2", *l2, maxKiB}, {"-l3", *l3, maxMiB}, {"-l4", *l4, maxMiB}} {
		need(c.v <= c.max, c.flag, fmt.Sprintf("at most %d", c.max), c.v)
	}
	need(*cores >= 1 && *cores <= 256, "-cores", "in 1..256", int64(*cores))
	need(*smt >= 1 && *smt <= 256, "-smt", "in 1..256", int64(*smt))
	need(*cores**smt <= 256, "-cores x -smt", "at most 256 hardware threads", int64(*cores**smt))
	need(*instrKI >= 0, "-instructions", "non-negative", *instrKI)

	div := func(v int64) int64 {
		out := v / *scale
		if out < int64(*block) {
			out = int64(*block)
		}
		return out
	}
	cfg := cache.HierarchyConfig{
		Cores:          *cores,
		ThreadsPerCore: *smt,
		L1I:            cache.Config{Name: "L1-I", Size: div(*l1 << 10), BlockSize: *block, Assoc: 8},
		L1D:            cache.Config{Name: "L1-D", Size: div(*l1 << 10), BlockSize: *block, Assoc: 8},
		L2:             cache.Config{Name: "L2", Size: div(*l2 << 10), BlockSize: *block, Assoc: 8},
		L3:             cache.Config{Name: "L3", Size: div(*l3 << 20), BlockSize: *block, Assoc: 20, AllocWays: *ways},
		L3Inclusive:    *incl,
	}
	// Keep each level's associativity after scaling, as
	// platform.ScaleCaches does.
	for _, c := range []*cache.Config{&cfg.L1I, &cfg.L1D, &cfg.L2, &cfg.L3} {
		*c = c.RoundToSets()
	}
	if *policy != "" {
		p, err := cache.ParsePolicy(*policy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-policy: %v\n", err)
			os.Exit(2)
		}
		cfg.L3.Policy = p
		if p.Stochastic() {
			cfg.L3.Seed = *seed | 1
		}
	}
	if *l4 > 0 {
		cfg.L4 = &cache.Config{Name: "L4", Size: div(*l4 << 20), BlockSize: *block, Assoc: 1}
	}
	if *predict {
		cfg.Predictor = &cache.PredictorConfig{}
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	h := cache.NewHierarchy(cfg)

	f, err := os.Open(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var n int64
	var a trace.Access
	for r.Next(&a) {
		h.Access(a)
		n++
	}
	if err := r.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("replayed %d accesses\n\n", n)
	report := func(name string, s cache.AccessStats) {
		fmt.Printf("%-5s hit %6.2f%%  hits %12d  misses %12d", name, 100*s.HitRate(), s.TotalHits(), s.TotalMisses())
		if *instrKI > 0 {
			fmt.Printf("  MPKI %7.2f", s.MPKI(*instrKI))
		}
		fmt.Println()
		for seg := trace.Segment(0); seg < trace.NumSegments; seg++ {
			if s.SegHits(seg)+s.SegMisses(seg) == 0 {
				continue
			}
			fmt.Printf("      %-6s hit %6.2f%%  misses %12d\n", seg, 100*s.SegHitRate(seg), s.SegMisses(seg))
		}
	}
	report("L1-I", h.L1IStats())
	report("L1-D", h.L1DStats())
	report("L2", h.L2Stats())
	report("L3", h.L3Stats())
	if h.HasL4() {
		report("L4", h.L4Stats())
	}
	fmt.Printf("\nDRAM reads %d, writes %d\n", h.MemReads, h.MemWrites)
	if *predict {
		ps := h.PredictorStats()
		fmt.Printf("\npredictor: coverage %.1f%%, hit %.1f%%, probe skip %.1f%% (lookups %d, jumps %d, bypasses %d)\n",
			100*ps.CoverageRate(), 100*ps.HitRate(), 100*ps.SkipRate(),
			ps.Lookups, ps.Jumps, ps.Bypasses)
	}
}
