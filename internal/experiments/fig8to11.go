package experiments

import (
	"fmt"
	"math"

	"searchmem/internal/cpu"
	"searchmem/internal/model"
	"searchmem/internal/platform"
	"searchmem/internal/stats"
	"searchmem/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "fig8a",
		Title:    "IPC vs L3 hit rate (CAT partitioning sweep)",
		PaperRef: "Figure 8a",
		Run:      runFig8a,
	})
	register(Experiment{
		ID:       "fig8b",
		Title:    "IPC vs L3 average memory access time (Equation 1)",
		PaperRef: "Figure 8b",
		Run:      runFig8b,
	})
	register(Experiment{
		ID:       "fig9",
		Title:    "QPS vs L3-equivalent area across core/cache splits",
		PaperRef: "Figure 9",
		Run:      runFig9,
	})
	register(Experiment{
		ID:       "fig10",
		Title:    "Performance when trading L3 capacity for cores",
		PaperRef: "Figure 10",
		Run:      runFig10,
	})
	register(Experiment{
		ID:       "fig11",
		Title:    "Decomposition: core gains vs L3-capacity losses",
		PaperRef: "Figure 11",
		Run:      runFig11,
	})
}

// catSweep measures (hit rate, AMAT, IPC) at each CAT way allocation on a
// loaded multi-threaded system, as the paper's CAT experiments are. Figures
// 8a and 8b plot the same sweep, so it is cached in the context.
func catSweep(c *Context) (xsHit, xsAMAT, ysIPC []float64) {
	s := c.curve(curveKey{kind: "catsweep"}, func() any {
		var hits, amats, ipcs []float64
		// The ten way-allocations differ only in L3 partitioning, so they ride
		// the single-pass MeasureMulti kernel: the shared leaf recording is
		// decoded once per batch per shard instead of once per point.
		base := leafShape(c)
		mcs := make([]workload.MeasureConfig, 10)
		for i := range mcs {
			mcs[i] = base
			mcs[i].L3Ways = 2 + 2*i
		}
		for _, m := range measureMultiSharded(c, c.Leaf(), mcs) {
			hits = append(hits, m.L3HitRate)
			amats = append(amats, m.AMATNS)
			ipcs = append(ipcs, m.IPC)
		}
		return [3][]float64{hits, amats, ipcs}
	}).([3][]float64)
	return s[0], s[1], s[2]
}

func runFig8a(c *Context) (Result, error) {
	hits, _, ipcs := catSweep(c)
	fig := &Figure{
		Title:  "Figure 8a: IPC vs L3 hit rate (CAT ways 2..20)",
		XLabel: "L3 hit rate", YLabel: "IPC",
	}
	for i := range hits {
		fig.Add("IPC", round3(hits[i]), ipcs[i])
	}
	if line, err := stats.FitLine(hits, ipcs); err == nil {
		fig.Note = fmt.Sprintf("linear fit: IPC = %.3f*h + %.3f (R2 = %.3f); paper reports a strong linear relationship",
			line.Slope, line.Intercept, line.R2)
	}
	return fig, nil
}

func runFig8b(c *Context) (Result, error) {
	_, amats, ipcs := catSweep(c)
	fig := &Figure{
		Title:  "Figure 8b: IPC vs AMAT_L3",
		XLabel: "AMAT ns", YLabel: "IPC",
	}
	for i := range amats {
		fig.Add("IPC", round3(amats[i]), ipcs[i])
	}
	if line, err := stats.FitLine(amats, ipcs); err == nil {
		fig.Note = fmt.Sprintf(
			"fit: IPC = %.2e*AMAT + %.3f (R2 = %.3f); paper Equation 1: IPC = -8.62e-03*AMAT + 1.78",
			line.Slope, line.Intercept, line.R2)
	}
	return fig, nil
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// hitCurve measures the combined post-L2 hit-rate curve of the micro leaf
// at the given thread count (the h(C) function behind Figures 9-11 and 14).
// The run must span several re-touch intervals of the static-rank table for
// long-distance reuse to register, so it uses an extended budget; the
// result is cached in the context.
func hitCurve(c *Context, threads int) *l3Curve {
	return c.curve(curveKey{kind: "l3curve", arg: int64(threads)}, func() any {
		return newL3Curve(c.Leaf(), threads, c.Opts.Budget*8, c.Opts.Seed+77)
	}).(*l3Curve)
}

// perfModel converts an L3 (and optional L4) operating point into IPC via
// the calibrated Top-Down core model: data misses through AMAT, instruction
// misses through the front-end latency term. This mechanistic composition is
// what gives the paper's "L3 must hold more than the instruction working
// set" floor (§IV-B) — Equation 1 alone cannot see instruction misses.
type perfModel struct {
	curve *l3Curve
	base  workload.Metrics
	core  cpu.CoreParams
	tL3   float64
	tMEM  float64
}

// newPerfModel measures the baseline operating point once (cached per
// context) and binds it to the hit-rate curve.
func newPerfModel(c *Context) *perfModel {
	return c.curve(curveKey{kind: "perfmodel"}, func() any {
		o := c.Opts
		baseCfg := leafShape(c)
		threads, plat := baseCfg.Threads, baseCfg.Platform
		// The model needs three recordings with *different* keys (curve run,
		// warmup, measured run). Pin their recording order to the serial
		// engine's; after that the curve pass and the baseline measurement
		// only replay, so they run as two legs.
		c.Leaf().Record(threads, o.Budget*8, o.Seed+77)
		workload.PreRecord(c.Leaf(), baseCfg)
		pm := &perfModel{core: plat.Core, tL3: plat.L3LatencyNS, tMEM: plat.MemLatencyNS}
		runLegs(c,
			func() { pm.curve = hitCurve(c, threads) },
			func() { pm.base = workload.Measure(c.Leaf(), baseCfg) })
		return pm
	}).(*perfModel)
}

// ipc is the §IV IPC function: the baseline's event rates with the data
// side's post-L2 AMAT (ns) and the share of L2 instruction misses that the L3
// holds. Every §IV QPS reaches it, explore's through core.Params.IPC.
func (p *perfModel) ipc(amatNS, codeHit float64) float64 {
	return p.core.IPC(cpu.EventRates{
		BranchMispredicts: p.base.BranchMPKI / 1000,
		L1IMisses:         p.base.L1IMPKI / 1000,
		L2IMisses:         p.base.L2InstrMPKI / 1000,
		L1DMisses:         p.base.L1DMPKI / 1000,
		L2DMisses:         p.base.L2DataMPKI / 1000,
		L3IMisses:         p.base.L2InstrMPKI / 1000 * (1 - codeHit),
		L3AMATNS:          amatNS,
	})
}

// ipcAt returns modeled IPC with the given L3 capacity and optional L4
// (hL4 = 0 disables it).
func (p *perfModel) ipcAt(l3 int64, hL4, tL4, l4Pen float64) float64 {
	amat := model.AMATWithL4(p.curve.dataHitRate(l3), hL4, p.tL3, tL4, p.tMEM, l4Pen)
	return p.ipc(amat, p.curve.codeHitRate(l3))
}

// qpsWithL4 returns relative throughput of n cores at an operating point,
// with an L4 when hL4 > 0.
func (p *perfModel) qpsWithL4(n float64, l3 int64, smt, hL4, tL4, l4Pen float64) float64 {
	return n * p.ipcAt(l3, hL4, tL4, l4Pen) * smt
}

func runFig9(c *Context) (Result, error) {
	pm := newPerfModel(c)
	plat := platform.PLT1()
	area := model.AreaModel{CoreAreaMiB: plat.CoreAreaL3MiB}
	fig := &Figure{
		Title:  "Figure 9: QPS vs L3-equivalent area (core count x L3 ways)",
		XLabel: "area (L3-equivalent MiB)", YLabel: "normalized QPS",
		Note: "each series is one core count; points are CAT allocations of 2..20 ways (2.25 MiB/way)",
	}
	var base float64
	for cores := 4; cores <= 18; cores++ {
		name := fmt.Sprintf("%d cores", cores)
		for ways := 2; ways <= 20; ways += 2 {
			l3 := int64(ways) * 2304 << 10 // 2.25 MiB per way
			q := pm.qpsWithL4(float64(cores), l3, 1, 0, 0, 0)
			if base == 0 {
				base = q
			}
			fig.Add(name, math.Round(area.Area(cores, float64(l3)/(1<<20)/float64(cores))*100)/100, q/base)
		}
	}
	return fig, nil
}

// fig10Design evaluates one (c MiB/core) point of the trade-off.
type fig10Design struct {
	l3PerCore float64
	cores     float64
	l3Total   int64
	qps       float64
}

// tradeoffSweep computes the Figure 10 designs at fixed total area.
func tradeoffSweep(c *Context, pm *perfModel, smt float64, quantize bool) []fig10Design {
	plat := platform.PLT1()
	area := model.AreaModel{CoreAreaMiB: plat.CoreAreaL3MiB}
	totalArea := area.Area(18, 2.5) // the PLT1 baseline floor plan
	var out []fig10Design
	for _, cpc := range []float64{2.25, 2.0, 1.75, 1.5, 1.25, 1.0, 0.75, 0.5} {
		n := area.CoresFor(totalArea, cpc)
		if quantize {
			n = math.Floor(n)
		}
		l3 := int64(n * cpc * (1 << 20))
		out = append(out, fig10Design{
			l3PerCore: cpc,
			cores:     n,
			l3Total:   l3,
			qps:       pm.qpsWithL4(n, l3, smt, 0, 0, 0),
		})
	}
	return out
}

// baselineQPS is the 18-core, 45 MiB, SMT-on reference.
func baselineQPS(pm *perfModel, smt float64) float64 {
	return pm.qpsWithL4(18, 45<<20, smt, 0, 0, 0)
}

func runFig10(c *Context) (Result, error) {
	pm := newPerfModel(c)
	smtOn := platform.PLT1().SMT.Speedup(2)
	fig := &Figure{
		Title:  "Figure 10: QPS change when trading L3 capacity for cores (iso-area)",
		XLabel: "L3 MiB per core", YLabel: "QPS improvement (fraction)",
		Note: "paper: optimum +14% at 1 MiB/core with 23 cores (SMT on, quantized)",
	}
	type variant struct {
		name     string
		smt      float64
		quantize bool
	}
	for _, v := range []variant{
		{"SMT on", smtOn, false},
		{"SMT on (quantized)", smtOn, true},
		{"SMT off", 1, false},
		{"SMT off (quantized)", 1, true},
	} {
		base := baselineQPS(pm, v.smt)
		for _, d := range tradeoffSweep(c, pm, v.smt, v.quantize) {
			fig.Add(v.name, d.l3PerCore, model.Improvement(base, d.qps))
		}
	}
	return fig, nil
}

func runFig11(c *Context) (Result, error) {
	pm := newPerfModel(c)
	smt := platform.PLT1().SMT.Speedup(2)
	base := baselineQPS(pm, smt)
	fig := &Figure{
		Title:  "Figure 11: decomposed effect of repurposing L3 transistors",
		XLabel: "L3 MiB per core", YLabel: "QPS change (fraction)",
		Note: "cores: gain from added cores at baseline hit rate; L3: loss from reduced capacity at 18 cores",
	}
	for _, d := range tradeoffSweep(c, pm, smt, false) {
		coresOnly := pm.qpsWithL4(d.cores, 45<<20, smt, 0, 0, 0)
		l3Only := pm.qpsWithL4(18, int64(d.l3PerCore*18*(1<<20)), smt, 0, 0, 0)
		fig.Add("Cores", d.l3PerCore, model.Improvement(base, coresOnly))
		fig.Add("L3 Cache", d.l3PerCore, model.Improvement(base, l3Only))
	}
	return fig, nil
}
