package experiments

import (
	"fmt"

	"searchmem/internal/core"
	"searchmem/internal/model"
	"searchmem/internal/platform"
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

// L4HitRate implements core.HitCurve with the sweep's reader, l4HitAt.
func (m measuredCurve) L4HitRate(l4Cap, l3Cap int64) float64 { return l4HitAt(m.l4, l4Cap>>20) }

// exploreEvaluator scores designs with the §IV perf model itself: its hit
// curves, and its IPC function of AMAT and code hit rate. So a design that
// fig10 or fig14 also draws gets their QPS exactly (TestExploreReadsPerfModel).
func exploreEvaluator(c *Context) core.Evaluator {
	// The perf model records and replays on Leaf(), the L4 sweep on Sweep().
	var curve measuredCurve
	runLegs(c,
		func() { curve.pm = newPerfModel(c) },
		func() { curve.l4 = sweepL4(c, 0) })
	plat := platform.PLT1()
	return core.Evaluator{
		Curve: curve,
		Params: core.Params{
			TL3NS:       curve.pm.tL3,
			TMEMNS:      curve.pm.tMEM,
			IPC:         curve.pm.ipc,
			SMTSpeedup:  plat.SMT.Speedup,
			CoreAreaMiB: plat.CoreAreaL3MiB,
			Power: model.PowerModel{
				SocketWatts:   145,
				BaselineCores: plat.CoresPerSocket,
				CorePowerFrac: plat.CorePowerFrac,
			},
		},
	}
}

func runExplore(c *Context) (Result, error) {
	ev := exploreEvaluator(c)
	plat := platform.PLT1()
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
