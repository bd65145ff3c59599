package experiments

import (
	"fmt"

	"searchmem/internal/core"
	"searchmem/internal/model"
	"searchmem/internal/platform"
	"searchmem/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "explore",
		Title:    "Design-space exploration with the measured hit curves (extension)",
		PaperRef: "§IV (extension)",
		Run:      runExplore,
	})
}

// measuredCurve adapts the measured stack-distance profiles to the
// core.HitCurve interface: L3 rates from the micro-scale combined curve, L4
// rates from the Figure 13 functional sweep.
type measuredCurve struct {
	pm *perfModel
	l4 []l4Point
}

// DataHitRate implements core.HitCurve.
func (m measuredCurve) DataHitRate(c int64) float64 { return m.pm.curve.dataHitRate(c) }

// CodeHitRate implements core.HitCurve.
func (m measuredCurve) CodeHitRate(c int64) float64 { return m.pm.curve.codeHitRate(c) }

// L4HitRate implements core.HitCurve with log-linear interpolation over the
// simulated sweep points.
func (m measuredCurve) L4HitRate(l4Cap, l3Cap int64) float64 {
	mib := l4Cap >> 20
	var below, above *l4Point
	for i := range m.l4 {
		p := &m.l4[i]
		if p.capMiB <= mib && (below == nil || p.capMiB > below.capMiB) {
			below = p
		}
		if p.capMiB >= mib && (above == nil || p.capMiB < above.capMiB) {
			above = p
		}
	}
	switch {
	case below == nil && above == nil:
		return 0
	case below == nil:
		return above.hitRate * float64(mib) / float64(above.capMiB)
	case above == nil || below.capMiB == above.capMiB:
		return below.hitRate
	default:
		frac := float64(mib-below.capMiB) / float64(above.capMiB-below.capMiB)
		return below.hitRate + frac*(above.hitRate-below.hitRate)
	}
}

func runExplore(c *Context) (Result, error) {
	// The perf model records and replays on Leaf(), the L4 sweep on Sweep().
	var curve measuredCurve
	runLegs(c,
		func() { curve.pm = newPerfModel(c) },
		func() { curve.l4 = sweepL4(c, 0) })
	pm := curve.pm
	plat := platform.PLT1()
	// The evaluator takes IPC as a line in AMAT: fit one to the perf model
	// at representative data hit rates, holding instruction effects out (the
	// InstrPenalty below carries them).
	var xs, ys []float64
	for _, h := range []float64{0.3, 0.45, 0.6, 0.75, 0.9} {
		rates := pm.baseRates()
		rates.L3AMATNS = model.AMATL3(h, pm.tL3, pm.tMEM)
		xs = append(xs, rates.L3AMATNS)
		ys = append(ys, pm.core.IPC(rates))
	}
	ipcLine, err := stats.FitLine(xs, ys)
	if err != nil {
		return nil, err
	}

	ev := core.Evaluator{
		Curve: curve,
		Params: core.Params{
			TL3NS:       plat.L3LatencyNS,
			TMEMNS:      plat.MemLatencyNS,
			IPCLine:     ipcLine,
			SMTSpeedup:  plat.SMT.Speedup,
			CoreAreaMiB: plat.CoreAreaL3MiB,
			Power: model.PowerModel{
				SocketWatts:   145,
				BaselineCores: plat.CoresPerSocket,
				CorePowerFrac: plat.CorePowerFrac,
			},
			InstrPenalty: func(codeHit float64) float64 {
				// Instruction misses that escape the L3 stall the
				// front end; the penalty mirrors perfModel's L3I term.
				miss := (1 - codeHit) * pm.base.L2InstrMPKI / 1000
				extra := miss * (pm.core.CyclesFromNS(pm.core.MemLatencyNS) - pm.core.L3LatencyCycles) * pm.core.FEOverlap
				base := 1 / pm.base.IPC
				return base / (base + extra)
			},
		},
	}
	baseline := core.Design{Cores: plat.CoresPerSocket, L3MiB: 45, SMTWays: 2}
	baseScore := ev.Evaluate(baseline)

	t := &Table{
		Title:   "Design-space exploration under the measured hit curves",
		Headers: []string{"constraint", "best design", "QPS vs baseline", "rel power", "energy/query"},
		Note:    "paper §IV: iso-area optimum 23 cores / 1 MiB/core (+14%), +1 GiB L4 (+27%); iso-power 18 cores / 1 MiB/core within 5% at -23% area",
	}
	addRow := func(name string, s core.Score) {
		imp, energy := core.Relative(baseScore, s)
		t.AddRow(name, s.Design.String(), pct(imp),
			fmt.Sprintf("%.2f", s.RelPower), fmt.Sprintf("%.2f", energy))
	}

	isoArea, _ := ev.Explore(baseline, core.Constraint{}, nil)
	addRow("iso-area, no L4", isoArea)
	isoAreaL4, _ := ev.Explore(baseline, core.Constraint{}, []int64{256, 512, 1024, 2048})
	addRow("iso-area + L4", isoAreaL4)
	isoPower, _ := ev.Explore(baseline, core.Constraint{MaxRelPower: 1.0}, nil)
	addRow("iso-power, no L4", isoPower)
	return t, nil
}
