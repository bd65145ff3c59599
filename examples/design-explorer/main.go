// Design-explorer searches the §IV design space with the core library: it
// evaluates (cores, L3-per-core, L4) configurations under iso-area and
// iso-power constraints using an analytic hit-curve stand-in, prints the
// frontier, and re-scores the winning design's eDRAM L4 at the paper's
// pessimistic latency point (AMAT with the L4 term, QPS through Equation
// 1). It then extends the winning design below the L4 — sweeping near:far
// memory capacity splits under the tiered-memory cost model (QPS per
// memory dollar, the figT1 economics).
//
// With -policy-panel (the default) it finishes by measuring the knobs inside
// the chosen hierarchy: the replacement-policy zoo on the L3 and the
// cache-level predictor, replaying a shrunken leaf trace (the figP1/figP2
// axes at example scale).
//
//	go run ./examples/design-explorer
//	go run ./examples/design-explorer -area 117 -isopower -mem-gib 64 -far-amat-pct 5
package main

import (
	"flag"
	"fmt"
	"math"
	"sort"

	"searchmem"
)

// paperCurve is an analytic hit curve shaped like the paper's measured
// ones: data locality saturating near 80%, code captured by 16 MiB, the L4
// capturing heap locality by ~1 GiB. (cmd/searchsim explore uses the
// measured curves instead.)
type paperCurve struct{}

func (paperCurve) DataHitRate(c int64) float64 {
	return 0.8 * (1 - math.Exp(-float64(c)/(18<<20)))
}

func (paperCurve) CodeHitRate(c int64) float64 {
	if c >= 16<<20 {
		return 1
	}
	return float64(c) / (16 << 20)
}

func (paperCurve) L4HitRate(l4, l3 int64) float64 {
	return 0.92 * (1 - math.Exp(-float64(l4)/(350<<20)))
}

func main() {
	var (
		area     = flag.Float64("area", 117, "die-area budget in L3-equivalent MiB")
		isoPower = flag.Bool("isopower", false, "cap socket power at the 18-core baseline")
		l4s      = flag.Bool("l4", true, "allow L4 configurations")

		memGiB     = flag.Float64("mem-gib", 64, "provisioned memory per leaf in GiB (tier sweep)")
		farAMATPct = flag.Float64("far-amat-pct", 5, "modeled AMAT degradation when the cold working set lives far (run figT1 for measured values)")

		policyPanel = flag.Bool("policy-panel", true, "measure L3 replacement policies and the level predictor on a shrunken leaf")
	)
	flag.Parse()

	ev := evaluator(searchmem.PLT1())
	baseline := searchmem.HierarchyDesign{Cores: 18, L3MiB: 45, SMTWays: 2}
	baseScore := ev.Evaluate(baseline)
	fmt.Printf("baseline: %s (area %.0f MiB-eq)\n\n", baseline, baseScore.AreaMiB)

	cons := searchmem.DesignConstraint{MaxAreaMiB: *area}
	if *isoPower {
		cons.MaxRelPower = 1.0
	}
	var l4Sizes []int64
	if *l4s {
		l4Sizes = []int64{256, 512, 1024, 2048}
	}
	best, frontier := ev.Explore(baseline, cons, l4Sizes)

	// Print the top designs by throughput.
	sort.Slice(frontier, func(i, j int) bool { return frontier[i].QPS > frontier[j].QPS })
	fmt.Println("top designs:")
	for i, s := range frontier {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-55s QPS %+6.1f%%  area %5.1f  AMAT %5.1f ns\n",
			s.Design.String(), 100*(s.QPS/baseScore.QPS-1), s.AreaMiB, s.AMATNS)
	}
	fmt.Printf("\nbest: %s (%+.1f%% over baseline)\n", best.Design, 100*(best.QPS/baseScore.QPS-1))
	fmt.Println("(the paper's §IV point: 23 cores / 1 MiB/core / 1 GiB L4 at +27%)")

	if best.Design.L4 != nil {
		l4Latency(ev, baseScore, best)
	}
	tierSweep(best, ev, searchmem.DefaultMemCost(), *memGiB, *farAMATPct)
	if *policyPanel {
		measurePolicies()
	}
}

// evaluator scores designs on plat's latencies, core area and SMT model,
// with throughput from Equation 1.
func evaluator(plat searchmem.Platform) searchmem.DesignEvaluator {
	return searchmem.DesignEvaluator{
		Curve: paperCurve{},
		Params: searchmem.DesignParams{
			TL3NS:       plat.L3LatencyNS,
			TMEMNS:      plat.MemLatencyNS,
			IPC:         searchmem.Equation1,
			SMTSpeedup:  plat.SMT.Speedup,
			CoreAreaMiB: plat.CoreAreaL3MiB,
		},
	}
}

// l4Latency re-scores the winning design with the paper's pessimistic L4 —
// 60 ns hits and a 5 ns miss penalty from serializing the tag lookup with
// memory scheduling — beside the 40 ns parallel-lookup L4 Explore chose.
func l4Latency(ev searchmem.DesignEvaluator, baseline, best searchmem.DesignScore) {
	pessimistic := *best.Design.L4
	pessimistic.HitLatencyNS, pessimistic.MissPenaltyNS = 60, 5
	d := best.Design
	d.L4 = &pessimistic

	fmt.Println("\nL4 designs for the best design:")
	for _, row := range []struct {
		name  string
		score searchmem.DesignScore
	}{
		{"baseline 40 ns, parallel lookup", best},
		{"pessimistic 60 ns + 5 ns penalty", ev.Evaluate(d)},
	} {
		fmt.Printf("  %-34s AMAT %5.1f ns  QPS %+.1f%% vs baseline\n",
			row.name, row.score.AMATNS, 100*(row.score.QPS/baseline.QPS-1))
	}
}

// measurePolicies replays a shrunken leaf under the replacement-policy zoo
// on the L3 and once more with the cache-level predictor attached — the
// figP1/figP2 axes at example scale. Stochastic policies get their seeds
// derived from the run seed inside Measure, so repeat runs are identical.
func measurePolicies() {
	runner := searchmem.S1Leaf(16)
	base := searchmem.MeasureConfig{
		Platform: searchmem.PLT1().ScaleCaches(16),
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget: 600_000, Seed: 1,
	}

	fmt.Println("\nL3 replacement policies (measured, shrunken leaf):")
	fmt.Printf("  %-10s %9s %8s\n", "policy", "L3 MPKI", "IPC")
	var baseMPKI float64
	for _, pol := range []searchmem.Policy{
		searchmem.PolicyLRU, searchmem.PolicySRRIP,
		searchmem.PolicyBRRIP, searchmem.PolicyDRRIP,
	} {
		mc := base
		mc.L3Policy = pol
		m := searchmem.Measure(runner, mc)
		mpki := m.L3.MPKI(m.Instructions)
		delta := ""
		if pol == searchmem.PolicyLRU {
			baseMPKI = mpki
		} else if baseMPKI > 0 {
			delta = fmt.Sprintf("  (%+.1f%% vs LRU)", 100*(mpki/baseMPKI-1))
		}
		fmt.Printf("  %-10s %9.3f %8.3f%s\n", pol, mpki, m.IPC, delta)
	}

	mc := base
	mc.Predictor = &searchmem.PredictorConfig{}
	m := searchmem.Measure(runner, mc)
	ps := m.Pred
	fmt.Printf("\ncache-level predictor (default table): coverage %.1f%%, hit %.1f%%, probe skip %.1f%%\n",
		100*ps.CoverageRate(), 100*ps.HitRate(), 100*ps.SkipRate())
	fmt.Println("(full grids: go run ./cmd/searchsim -fast figP1 figP2)")
}

// tierSweep extends the winning design below the L4: with the shard too big
// for any cache, what fraction of leaf memory is worth buying as near DDR
// versus CXL-attached far capacity? QPS follows the evaluator's IPC function
// (Equation 1) from the design's AMAT, degraded by farAMATPct when pages
// spill far (an analytic stand-in — figT1 simulates the real placement
// policies); cost follows the tiered-memory price model.
func tierSweep(best searchmem.DesignScore, ev searchmem.DesignEvaluator, cost searchmem.MemCostModel, memGiB, farAMATPct float64) {
	bytes := int64(memGiB * (1 << 30))
	allNear := cost.Dollars(bytes, 0)
	codeHit := ev.Curve.CodeHitRate(int64(best.Design.L3MiB * (1 << 20)))
	qpsAllNear := ev.Params.IPC(best.AMATNS, codeHit)

	fmt.Printf("\nmemory tiering for the best design (%.0f GiB/leaf, $%.0f all-near):\n", memGiB, allNear)
	fmt.Printf("  %-10s %12s %10s %14s\n", "near", "mem $/leaf", "QPS rel", "QPS per mem $")
	for _, nearFrac := range []float64{1.0, 0.5, 0.25, 0.125} {
		near := int64(float64(bytes) * nearFrac)
		dollars := cost.Dollars(near, bytes-near)
		amat := best.AMATNS
		if nearFrac < 1 {
			amat *= 1 + farAMATPct/100
		}
		rel := ev.Params.IPC(amat, codeHit) / qpsAllNear
		fmt.Printf("  %-10s %12.0f %10.3f %14.3f\n",
			fmt.Sprintf("%.1f%%", 100*nearFrac), dollars, rel, rel*allNear/dollars)
	}
	fmt.Println("(simulated splits and policies: go run ./cmd/searchsim -fast figT1 figT2)")
}
