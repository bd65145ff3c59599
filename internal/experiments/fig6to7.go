package experiments

import (
	"fmt"

	"searchmem/internal/cache"
	"searchmem/internal/trace"
	"searchmem/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "fig6a",
		Title:    "Cache misses across the hierarchy by access type",
		PaperRef: "Figure 6a",
		Run:      runFig6a,
	})
	register(Experiment{
		ID:       "fig6b",
		Title:    "Working-set hit-rate curve vs L3 capacity",
		PaperRef: "Figure 6b",
		Run:      runFig6b,
	})
	register(Experiment{
		ID:       "fig6c",
		Title:    "Working-set MPKI curve vs L3 capacity",
		PaperRef: "Figure 6c",
		Run:      runFig6c,
	})
	register(Experiment{
		ID:       "fig7a",
		Title:    "MPKI reduction when eliminating conflict misses",
		PaperRef: "Figure 7a",
		Run:      runFig7a,
	})
	register(Experiment{
		ID:       "fig7b",
		Title:    "MPKI sensitivity to cache block size",
		PaperRef: "Figure 7b",
		Run:      runFig7b,
	})
}

// runFig6a simulates the PLT1-like hierarchy and reports per-level MPKI
// broken down by segment.
func runFig6a(c *Context) (Result, error) {
	o := c.Opts
	m := workload.Measure(c.Leaf(), workload.MeasureConfig{
		Platform: c.PLT1(),
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget:         o.Budget,
		Seed:           o.Seed,
		WarmupFraction: 2.0,
	})
	t := &Table{
		Title:   "Figure 6a: per-level MPKI by access type (S1 leaf, PLT1-like)",
		Headers: []string{"level", "code", "heap", "shard", "stack"},
		Note:    "shared L3 eliminates instruction misses; heap and shard survive to memory",
	}
	ki := float64(m.Instructions) / 1000
	for _, lvl := range []struct {
		name string
		st   cache.AccessStats
	}{{"L1", m.L1}, {"L2", m.L2}, {"L3", m.L3}} {
		t.AddRow(lvl.name,
			fmt.Sprintf("%.2f", float64(lvl.st.SegMisses(trace.Code))/ki),
			fmt.Sprintf("%.2f", float64(lvl.st.SegMisses(trace.Heap))/ki),
			fmt.Sprintf("%.2f", float64(lvl.st.SegMisses(trace.Shard))/ki),
			fmt.Sprintf("%.2f", float64(lvl.st.SegMisses(trace.Stack))/ki))
	}
	return t, nil
}

// sweepCapacities are the paper's Figure 6b/6c x values (MiB).
var sweepCapacities = []int64{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}

// segProfileResult is the memoized outcome of segProfile.
type segProfileResult struct {
	sds   *segmentStackDists
	instr int64
}

// segProfile synthesizes the capacity-sweep trace once (memoized in the
// Replayer), then profiles every segment's stack distances over the shared
// recording: one leg per segment, each with its own cursor, observing the
// accesses of its segment and skipping the rest. A segment's profiler sees
// exactly the subsequence a per-segment FilterSegment pass would deliver, in
// the same order. That is one decode per segment where a single routed pass
// needs one in all, but the decode is a few per cent of the profiling it
// feeds and the legs run on separate cores. Figures 6b and 6c share the
// result via the context's curve cache.
func segProfile(c *Context) (*segmentStackDists, int64) {
	r := c.curve(curveKey{kind: "segprof"}, func() any {
		o := c.Opts
		threads := min(o.Threads, 16)
		sh, st := c.Sweep().Trace(threads, o.Budget*4, o.Seed)
		sds := newSegmentStackDists(int64(threads) * workload.SimUnits(256<<10))
		legs := make([]func(), len(sds.sds))
		for seg := range sds.sds {
			legs[seg] = func() {
				sd := sds.sds[seg]
				v := sh.Cursor()
				for b := v.NextBatch(); len(b) > 0; b = v.NextBatch() {
					for i := range b {
						if int(b[i].Seg) == seg {
							sd.Observe(b[i])
						}
					}
				}
			}
		}
		runLegs(c, legs...)
		return segProfileResult{sds: sds, instr: st.Instructions}
	}).(segProfileResult)
	return r.sds, r.instr
}

// runFig6b sweeps L3 capacity (paper units) over the sweep profile's
// per-segment reuse profiles.
func runFig6b(c *Context) (Result, error) {
	sds, _ := segProfile(c)
	fig := &Figure{
		Title:  "Figure 6b: working-set hit rate vs L3 capacity (paper MiB)",
		XLabel: "L3 MiB", YLabel: "hit rate",
		Note: "code saturates by 16 MiB; heap ~95% at 1 GiB; shard barely cacheable",
	}
	for _, mb := range sweepCapacities {
		capSim := workload.SimUnits(mb << 20)
		fig.Add("code", float64(mb), sds.hitRate(trace.Code, capSim))
		fig.Add("heap", float64(mb), sds.hitRate(trace.Heap, capSim))
		fig.Add("shard", float64(mb), sds.hitRate(trace.Shard, capSim))
		// Combined: weighted by post-L2 miss volume.
		var miss, base float64
		for seg := trace.Segment(0); seg < trace.NumSegments; seg++ {
			miss += sds.sds[seg].Misses(seg, capSim)
			base += sds.sds[seg].Misses(seg, sds.l2eff)
		}
		comb := 0.0
		if base > 0 {
			comb = 1 - miss/base
			if comb < 0 {
				comb = 0
			}
		}
		fig.Add("combined", float64(mb), comb)
	}
	return fig, nil
}

// runFig6c is the MPKI view of the same sweep.
func runFig6c(c *Context) (Result, error) {
	sds, instr := segProfile(c)
	fig := &Figure{
		Title:  "Figure 6c: working-set MPKI vs L3 capacity (paper MiB)",
		XLabel: "L3 MiB", YLabel: "MPKI",
		Note: "paper: combined MPKI 3.51 at 32 MiB falling to 1.37 at 1 GiB; reproduced absolute MPKIs are inflated by compulsory misses (runs are ~10^7 instructions vs the paper's 1.35x10^11), the capacity-driven shape is the comparison target",
	}
	for _, mb := range sweepCapacities {
		capSim := workload.SimUnits(mb << 20)
		fig.Add("code", float64(mb), sds.mpki(trace.Code, capSim, instr))
		fig.Add("heap", float64(mb), sds.mpki(trace.Heap, capSim, instr))
		fig.Add("shard", float64(mb), sds.mpki(trace.Shard, capSim, instr))
		fig.Add("combined", float64(mb), sds.combinedMPKI(capSim, instr))
	}
	return fig, nil
}

// runFig7a compares the default hierarchy against fully-associative caches
// of the same capacities.
func runFig7a(c *Context) (Result, error) {
	o := c.Opts
	base := workload.MeasureConfig{
		Platform: c.PLT1(),
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget:         o.Budget,
		Seed:           o.Seed,
		WarmupFraction: 1.5,
	}
	faPlat := c.PLT1()
	faPlat.L1I.Assoc, faPlat.L1D.Assoc, faPlat.L2.Assoc, faPlat.L3.Assoc = 0, 0, 0, 0
	faCfg := base
	faCfg.Platform = faPlat
	// Both variants replay the same recording (identical keys, different
	// simulated hierarchies).
	ms := measureMultiSharded(c, c.Leaf(), []workload.MeasureConfig{base, faCfg})
	def, fa := ms[0], ms[1]

	t := &Table{
		Title:   "Figure 7a: MPKI decrease with fully-associative caches",
		Headers: []string{"cache", "default MPKI", "fully-assoc MPKI", "decrease"},
		Note:    "paper: ~7.4% at L1, <1% at L2/L3 — conflicts are not the problem",
	}
	rows := []struct {
		name string
		d, f float64
	}{
		{"L1-I", def.L1IMPKI, fa.L1IMPKI},
		{"L1-D", def.L1DMPKI, fa.L1DMPKI},
		{"L2", def.L2InstrMPKI + def.L2DataMPKI, fa.L2InstrMPKI + fa.L2DataMPKI},
		{"L3", def.L3LoadMPKI + def.L3InstrMPKI, fa.L3LoadMPKI + fa.L3InstrMPKI},
	}
	for _, r := range rows {
		dec := 0.0
		if r.d > 0 {
			dec = (r.d - r.f) / r.d
		}
		t.AddRow(r.name, fmt.Sprintf("%.2f", r.d), fmt.Sprintf("%.2f", r.f), pct(dec))
	}
	return t, nil
}

// runFig7b sweeps the block size of every cache level.
func runFig7b(c *Context) (Result, error) {
	o := c.Opts
	fig := &Figure{
		Title:  "Figure 7b: MPKI vs cache block size (all caches)",
		XLabel: "block size", YLabel: "MPKI",
		Note: "paper: 64 B near-optimal with limited benefit from larger lines; the reproduction's sequential shard scans give larger lines more benefit than production's more irregular accesses",
		// Block sizes are sub-MiB byte counts: render them with adaptive
		// units instead of raw floats.
		XFormat: func(x float64) string { return mib(int64(x)) },
	}
	blockSizes := []int{32, 64, 128, 256, 512, 1024}
	mcs := make([]workload.MeasureConfig, len(blockSizes))
	for i, bs := range blockSizes {
		plat := c.PLT1()
		for _, cfg := range []*cache.Config{&plat.L1I, &plat.L1D, &plat.L2, &plat.L3} {
			cfg.BlockSize = bs
			// Keep blocks/ways divisibility.
			blocks := cfg.Size / int64(bs)
			if cfg.Assoc > 0 && blocks%int64(cfg.Assoc) != 0 {
				blocks -= blocks % int64(cfg.Assoc)
				cfg.Size = blocks * int64(bs)
			}
		}
		mcs[i] = workload.MeasureConfig{
			Platform: plat,
			Cores:    1, SMTWays: 1, Threads: 1,
			Budget:         o.Budget,
			Seed:           o.Seed,
			WarmupFraction: 1.5,
		}
	}
	for i, m := range measureMultiSharded(c, c.Leaf(), mcs) {
		bs := float64(blockSizes[i])
		fig.Add("L1-I", bs, m.L1IMPKI)
		fig.Add("L1-D", bs, m.L1DMPKI)
		fig.Add("L2", bs, m.L2InstrMPKI+m.L2DataMPKI)
		fig.Add("L3", bs, m.L3LoadMPKI+m.L3InstrMPKI)
	}
	return fig, nil
}
