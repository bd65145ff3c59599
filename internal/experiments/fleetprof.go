package experiments

import (
	"fmt"
	"math"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/obs"
	"searchmem/internal/trace"
	"searchmem/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "fleetprof",
		Title:    "GWP-style sampled fleet profiling vs exhaustive observation",
		PaperRef: "§II methodology (Google-Wide Profiling)",
		Run:      runFleetProf,
	})
}

// fleetProfRates are the sampling rates swept, descending so the table
// reads from exact to sparsest. Rate 1.0 is the exact reference: the same
// estimator fed every event.
var fleetProfRates = []float64{1.00, 0.50, 0.10, 0.02}

// fleetProfResult carries the numeric estimates for the table and tests.
type fleetProfResult struct {
	rates []float64
	ests  []obs.FleetEstimate
}

// exact returns the rate-1.0 reference estimate.
func (r fleetProfResult) exact() obs.FleetEstimate { return r.ests[0] }

// topDownErrPP returns the mean absolute Top-Down category error, in
// percentage points, of the i-th rate against the exact reference.
func (r fleetProfResult) topDownErrPP(i int) float64 {
	e, s := breakdownSlots(r.exact().Breakdown), breakdownSlots(r.ests[i].Breakdown)
	var sum float64
	for k := range e {
		sum += math.Abs(s[k] - e[k])
	}
	return 100 * sum / float64(len(e))
}

// rateErrFrac returns the mean absolute relative error of the i-th rate's
// scalar metrics (IPC, MPKIs) against the exact reference.
func (r fleetProfResult) rateErrFrac(i int) float64 {
	e, s := r.exact(), r.ests[i]
	pairs := [][2]float64{
		{s.IPC, e.IPC},
		{s.BranchMPKI, e.BranchMPKI},
		{s.L1IMPKI, e.L1IMPKI},
		{s.L1DMPKI, e.L1DMPKI},
		{s.L2InstrMPKI, e.L2InstrMPKI},
		{s.L3LoadMPKI, e.L3LoadMPKI},
	}
	var sum float64
	n := 0
	for _, p := range pairs {
		if p[1] == 0 {
			continue
		}
		sum += math.Abs(p[0]-p[1]) / p[1]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// breakdownSlots flattens a Breakdown into its six category fractions in
// presentation order.
func breakdownSlots(b cpu.Breakdown) [6]float64 {
	return [6]float64{b.Retiring, b.BadSpec, b.FELatency, b.FEBandwidth, b.BECore, b.BEMemory}
}

// runFleetProfiles measures the S1 leaf once with one profiler per rate
// attached to the same event stream, so every estimate observes the
// identical execution and differs only in what it attributed.
func runFleetProfiles(c *Context) fleetProfResult {
	o := c.Opts
	plat := c.PLT1()
	leaf := c.Leaf()

	profs := make([]*obs.Profiler, len(fleetProfRates))
	for i, r := range fleetProfRates {
		profs[i] = obs.NewProfiler(obs.ProfilerConfig{
			Rate: r,
			Seed: o.Seed + 1 + uint64(i)*101,
		})
	}
	o.logf("fleetprof: measuring S1 leaf with %d samplers attached...", len(profs))
	m := workload.Measure(leaf, workload.MeasureConfig{
		Platform: plat,
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget:         o.Budget,
		Seed:           o.Seed,
		WarmupFraction: 2.0,
		AccessObserver: func(a trace.Access, lvl cache.HitLevel) {
			for _, p := range profs {
				p.ObserveAccess(a, lvl)
			}
		},
		BranchObserver: func(t uint8, mis bool) {
			for _, p := range profs {
				p.ObserveBranch(t, mis)
			}
		},
	})

	core := plat.Core
	if ov := leaf.MemOverlap(); ov > 0 {
		core.MemOverlap = ov
	}
	res := fleetProfResult{rates: fleetProfRates}
	for i, p := range profs {
		res.ests = append(res.ests, p.Estimate(core, plat.L3LatencyNS, plat.MemLatencyNS, m.Instructions))
		p.EmitTrace(o.Tracer, fmt.Sprintf("fleetprof[r=%s]", trimFloat(fleetProfRates[i])))
	}
	return res
}

// runFleetProf reproduces the paper's implicit methodology claim: the fleet
// profiles behind Table I and Figure 3 come from sparse GWP sampling, and
// sparse sampling recovers the exhaustive profile. Rows are the profile
// metrics, columns the sampling rates, with summary error rows underneath.
func runFleetProf(c *Context) (Result, error) {
	res := runFleetProfiles(c)

	t := &Table{
		Title:   "Sampled fleet profile vs exhaustive observation (S1 leaf, PLT1)",
		Headers: []string{"metric"},
		Note: "r=1.00 attributes every event (exact); sparse windows rescale through always-on totals (GWP §II). " +
			"Estimator error shrinks with rate; Top-Down categories stay within 2 pp of exact at r=0.10.",
	}
	for i, r := range res.rates {
		h := fmt.Sprintf("r=%.2f", r)
		if i == 0 {
			h += " (exact)"
		}
		t.Headers = append(t.Headers, h)
	}
	row := func(name string, f func(e obs.FleetEstimate) string) {
		cells := []string{name}
		for _, e := range res.ests {
			cells = append(cells, f(e))
		}
		t.AddRow(cells...)
	}
	row("IPC", func(e obs.FleetEstimate) string { return fmt.Sprintf("%.3f", e.IPC) })
	row("branch MPKI", func(e obs.FleetEstimate) string { return fmt.Sprintf("%.2f", e.BranchMPKI) })
	row("L1I MPKI", func(e obs.FleetEstimate) string { return fmt.Sprintf("%.2f", e.L1IMPKI) })
	row("L1D MPKI", func(e obs.FleetEstimate) string { return fmt.Sprintf("%.2f", e.L1DMPKI) })
	row("L2 instr MPKI", func(e obs.FleetEstimate) string { return fmt.Sprintf("%.2f", e.L2InstrMPKI) })
	row("L3 load MPKI", func(e obs.FleetEstimate) string { return fmt.Sprintf("%.2f", e.L3LoadMPKI) })
	row("L3 hit rate", func(e obs.FleetEstimate) string { return pct(e.L3HitRate) })
	tdRows := []struct {
		name string
		get  func(cpu.Breakdown) float64
	}{
		{"retiring", func(b cpu.Breakdown) float64 { return b.Retiring }},
		{"bad speculation", func(b cpu.Breakdown) float64 { return b.BadSpec }},
		{"front-end latency", func(b cpu.Breakdown) float64 { return b.FELatency }},
		{"front-end bandwidth", func(b cpu.Breakdown) float64 { return b.FEBandwidth }},
		{"back-end core", func(b cpu.Breakdown) float64 { return b.BECore }},
		{"back-end memory", func(b cpu.Breakdown) float64 { return b.BEMemory }},
	}
	for _, td := range tdRows {
		get := td.get
		row("topdown "+td.name, func(e obs.FleetEstimate) string { return pct(get(e.Breakdown)) })
	}
	row("sampled accesses", func(e obs.FleetEstimate) string { return fmt.Sprintf("%d", e.SampledAccesses) })
	row("sampling windows", func(e obs.FleetEstimate) string { return fmt.Sprintf("%d", e.Windows) })

	errTD := []string{"topdown mean |err| pp"}
	errRates := []string{"scalar mean |rel err|"}
	for i := range res.rates {
		errTD = append(errTD, fmt.Sprintf("%.3f", res.topDownErrPP(i)))
		errRates = append(errRates, pct(res.rateErrFrac(i)))
	}
	t.AddRow(errTD...)
	t.AddRow(errRates...)

	if reg := c.Opts.Metrics; reg != nil {
		for i, r := range res.rates {
			lbl := obs.L("rate", trimFloat(r))
			reg.Gauge("fleetprof_ipc", lbl).Set(res.ests[i].IPC)
			reg.Gauge("fleetprof_topdown_err_pp", lbl).Set(res.topDownErrPP(i))
			reg.Gauge("fleetprof_scalar_rel_err", lbl).Set(res.rateErrFrac(i))
		}
	}
	return t, nil
}
