package experiments

import (
	"fmt"

	"searchmem/internal/cache"
	"searchmem/internal/mem"
	"searchmem/internal/obs"
	"searchmem/internal/workload"
)

// This file sweeps the batched kernel's replacement-policy zoo and the
// cache-level predictor. figP1 asks the paper's question one knob deeper
// than Figures 8-11: with shapes fixed at the rebalanced L3 + 512 MiB L4,
// how much of the remaining MPKI is replacement policy rather than
// capacity, per level? figP2 measures the level predictor (PAPERS.md,
// Jalili & Erez): how much of the probe chain can confident predictions
// skip, and what the mispredict penalty costs in attributed-MPKI error.
// Both ride the single-pass MeasureMulti kernel over the shared sweep
// recording, byte-identical serial vs parallel.

func init() {
	register(Experiment{
		ID:       "figP1",
		Title:    "Replacement-policy zoo x hierarchy level",
		PaperRef: "extension (RRIP, Jaleel et al.; PAPERS.md)",
		Run:      runFigP1,
	})
	register(Experiment{
		ID:       "figP2",
		Title:    "Cache-level predictor: table size x confidence threshold",
		PaperRef: "extension (Jalili & Erez, PAPERS.md)",
		Run:      runFigP2,
	})
}

// polVariant is one replacement configuration: a parsed policy plus the
// dead-block insertion flag ("srrip+db").
type polVariant struct {
	name string
	pol  cache.Policy
	db   bool
}

// polVariants is the default policy grid (LRU is the baseline row, not a
// grid entry).
var polVariants = []polVariant{
	{"srrip", cache.SRRIP, false},
	{"brrip", cache.BRRIP, false},
	{"drrip", cache.DRRIP, false},
	{"srrip+db", cache.SRRIP, true},
}

// polLevels is the level grid: the levels whose replacement policy the
// paper's capacity story leaves as the open knob. (L1s are latency-bound
// and tiny; policy barely moves them.)
var polLevels = []string{"L2", "L3", "L4"}

// polBase is the shared measurement shape: tierBase's rebalanced L3 +
// 512 MiB L4 with the DRAM model attached (so AMAT uses the measured
// effective read latency, not the flat constant), except the L4 is 8-way —
// tierBase's paper-faithful direct-mapped L4 has no victim choice, which
// would make every L4 policy row identical by construction.
func polBase(c *Context) workload.MeasureConfig {
	mc := tierBase(c)
	mc.L4Assoc = 8
	mc.Mem = &mem.Config{}
	return mc
}

// applyLevelPolicy routes one grid cell onto the MeasureConfig's per-level
// policy knobs.
func applyLevelPolicy(mc *workload.MeasureConfig, level string, v polVariant) {
	switch level {
	case "L2":
		mc.L2Policy = v.pol
	case "L3":
		mc.L3Policy = v.pol
	case "L4":
		mc.L4Policy = v.pol
	default:
		panic("unknown policy level " + level)
	}
	mc.DeadBlock = v.db
}

// levelMPKI extracts the modified level's demand MPKI from a measurement.
func levelMPKI(m workload.Metrics, level string) float64 {
	switch level {
	case "L2":
		return m.L2.MPKI(m.Instructions)
	case "L3":
		return m.L3.MPKI(m.Instructions)
	case "L4":
		return m.L4.MPKI(m.Instructions)
	}
	panic("unknown policy level " + level)
}

// polPoint is one measured grid cell.
type polPoint struct {
	level   string
	variant polVariant
	m       workload.Metrics
}

// polSweepData is the memoized figP1 outcome.
type polSweepData struct {
	baseline workload.Metrics // all-LRU
	points   []polPoint
}

// polSweep measures the all-LRU baseline and the level x policy grid in one
// MeasureMulti pass over the shared sweep recording. Memoized per context.
func polSweep(c *Context) *polSweepData {
	return c.curve(curveKey{kind: "polsweep"}, func() any {
		mcs := []workload.MeasureConfig{polBase(c)} // index 0: all-LRU baseline
		var pts []polPoint
		for _, level := range polLevels {
			for _, v := range polVariants {
				mc := polBase(c)
				applyLevelPolicy(&mc, level, v)
				mcs = append(mcs, mc)
				pts = append(pts, polPoint{level: level, variant: v})
			}
		}
		ms := measureMultiSharded(c, c.Sweep(), mcs)
		for i := range pts {
			pts[i].m = ms[i+1]
			c.Opts.logf("figP1: %s %s: MPKI %.3f, IPC %.3f",
				pts[i].level, pts[i].variant.name, levelMPKI(pts[i].m, pts[i].level), pts[i].m.IPC)
		}
		return &polSweepData{baseline: ms[0], points: pts}
	}).(*polSweepData)
}

func runFigP1(c *Context) (Result, error) {
	data := polSweep(c)
	base := data.baseline
	t := &Table{
		Title:   "Figure P1: replacement policy x hierarchy level (rebalanced L3 + 8-way 512 MiB L4, DRAM model attached)",
		Headers: []string{"level", "policy", "MPKI", "dMPKI", "AMAT ns", "IPC", "dIPC"},
		Note: fmt.Sprintf("dMPKI is the modified level's demand MPKI vs the all-LRU baseline (L2 %s / L3 %s / L4 %s); IPC via the calibrated core model with the DRAM model's effective read latency",
			trimFloat(base.L2.MPKI(base.Instructions)), trimFloat(base.L3.MPKI(base.Instructions)), trimFloat(base.L4.MPKI(base.Instructions))),
	}
	reg := c.Opts.Metrics
	if reg != nil {
		reg.Gauge("policy_baseline_ipc").Set(base.IPC)
		reg.Gauge("policy_baseline_amat_ns").Set(base.AMATNS)
	}
	for _, level := range polLevels {
		// Baseline row per level so each block reads against its own LRU.
		seen := false
		for _, p := range data.points {
			if p.level != level {
				continue
			}
			if !seen {
				t.AddRow(level, "lru", trimFloat(levelMPKI(base, level)), pct(0),
					trimFloat(base.AMATNS), trimFloat(base.IPC), pct(0))
				seen = true
			}
			baseMPKI := levelMPKI(base, level)
			mpki := levelMPKI(p.m, level)
			dm := 0.0
			if baseMPKI > 0 {
				dm = mpki/baseMPKI - 1
			}
			t.AddRow(level, p.variant.name, trimFloat(mpki), pct(dm),
				trimFloat(p.m.AMATNS), trimFloat(p.m.IPC), pct(p.m.IPC/base.IPC-1))
			if reg != nil {
				ls := []obs.Label{obs.L("level", level), obs.L("policy", p.variant.name)}
				reg.Gauge("policy_mpki", ls...).Set(mpki)
				reg.Gauge("policy_amat_ns", ls...).Set(p.m.AMATNS)
				reg.Gauge("policy_ipc", ls...).Set(p.m.IPC)
			}
		}
	}
	return t, nil
}

// predGrid is the default figP2 grid.
var (
	predBitsGrid = []int{10, 12, 14}
	predConfGrid = []int{1, 2, 3}
)

// predPoint is one measured predictor configuration.
type predPoint struct {
	bits, conf int
	block      bool // block-indexed instead of per-PC keys
	m          workload.Metrics
}

// predSweepData is the memoized figP2 outcome.
type predSweepData struct {
	baseline workload.Metrics // predictor off
	points   []predPoint
}

// predSweep measures the predictor-off baseline and the table-size x
// confidence grid (plus one block-indexed row at the default shape) in one
// MeasureMulti pass. Memoized per context.
func predSweep(c *Context) *predSweepData {
	return c.curve(curveKey{kind: "predsweep"}, func() any {
		mcs := []workload.MeasureConfig{polBase(c)} // index 0: predictor off
		var pts []predPoint
		for _, bits := range predBitsGrid {
			for _, conf := range predConfGrid {
				mc := polBase(c)
				mc.Predictor = &cache.PredictorConfig{TableBits: uint(bits), ConfThreshold: uint8(conf)}
				mcs = append(mcs, mc)
				pts = append(pts, predPoint{bits: bits, conf: conf})
			}
		}
		// One block-indexed row at the grid's last shape, isolating the keying
		// choice (per-PC vs block address) from table geometry.
		lastBits, lastConf := predBitsGrid[len(predBitsGrid)-1], predConfGrid[len(predConfGrid)-1]
		mcBlock := polBase(c)
		mcBlock.Predictor = &cache.PredictorConfig{
			TableBits: uint(lastBits), ConfThreshold: uint8(lastConf), IndexBlock: true,
		}
		mcs = append(mcs, mcBlock)
		pts = append(pts, predPoint{bits: lastBits, conf: lastConf, block: true})

		ms := measureMultiSharded(c, c.Sweep(), mcs)
		for i := range pts {
			pts[i].m = ms[i+1]
			c.Opts.logf("figP2: bits %d conf %d block=%v: skip %.1f%%, mispredict %.2f%%",
				pts[i].bits, pts[i].conf, pts[i].block,
				100*pts[i].m.Pred.SkipRate(), 100*pts[i].m.Pred.MispredictRate())
		}
		return &predSweepData{baseline: ms[0], points: pts}
	}).(*predSweepData)
}

func runFigP2(c *Context) (Result, error) {
	data := predSweep(c)
	base := data.baseline
	baseMPKI := base.L3.MPKI(base.Instructions)
	t := &Table{
		Title: "Figure P2: cache-level predictor, table size x confidence threshold",
		Headers: []string{"bits", "conf", "keys", "coverage", "pred hit", "mispredict",
			"probe skip", "dMPKI", "dAMAT"},
		Note: fmt.Sprintf("predictor-off baseline: L3 MPKI %s, AMAT %s ns; prediction overlays probe accounting on the authoritative chain, so dMPKI and dAMAT are exact-zero cross-checks; probe skip is serial probes avoided vs the full chain, net of mispredict penalties",
			trimFloat(baseMPKI), trimFloat(base.AMATNS)),
	}
	reg := c.Opts.Metrics
	if reg != nil {
		reg.Gauge("pred_baseline_l3_mpki").Set(baseMPKI)
	}
	for _, p := range data.points {
		keys := "per-PC"
		if p.block {
			keys = "block"
		}
		ps := p.m.Pred
		coverage, hit, skip := ps.CoverageRate(), ps.HitRate(), ps.SkipRate()
		mpki := p.m.L3.MPKI(p.m.Instructions)
		dm := 0.0
		if baseMPKI > 0 {
			dm = mpki/baseMPKI - 1
		}
		bits, conf := fmt.Sprintf("%d", p.bits), fmt.Sprintf("%d", p.conf)
		t.AddRow(
			bits,
			conf,
			keys,
			pct(coverage),
			pct(hit),
			pct(ps.MispredictRate()),
			pct(skip),
			pct(dm),
			pct(p.m.AMATNS/base.AMATNS-1),
		)
		if reg != nil {
			ls := []obs.Label{obs.L("bits", bits), obs.L("conf", conf), obs.L("keys", keys)}
			reg.Gauge("pred_coverage", ls...).Set(coverage)
			reg.Gauge("pred_hit_rate", ls...).Set(hit)
			reg.Gauge("pred_skip_rate", ls...).Set(skip)
			reg.Gauge("pred_l3_mpki", ls...).Set(mpki)
		}
	}
	return t, nil
}
