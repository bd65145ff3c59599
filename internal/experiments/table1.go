package experiments

import (
	"fmt"

	"searchmem/internal/platform"
	"searchmem/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "table1",
		Title:    "Key performance metrics for search, SPEC CPU2006, and CloudSuite",
		PaperRef: "Table I",
		Run:      runTable1,
	})
	register(Experiment{
		ID:       "table2",
		Title:    "Key attributes of PLT1 and PLT2 platforms",
		PaperRef: "Table II",
		Run:      runTable2,
	})
}

// table1Column is one workload column of Table I.
type table1Column struct {
	name  string
	plat  platform.Platform
	build func() workload.Runner
}

func runTable1(c *Context) (Result, error) {
	o := c.Opts
	shrink := o.Shrink
	plt1, plt2 := c.PLT1(), c.PLT2()
	// The "S1 leaf PLT1" row is the "S1 leaf" column again (same runner,
	// platform and MeasureConfig): it is measured once and rendered twice.
	cols := []table1Column{
		{"S1 leaf", plt1, func() workload.Runner { return c.Leaf() }},
		{"S2 leaf", plt1, func() workload.Runner { return workload.S2Leaf(shrink).Build() }},
		{"S3 leaf", plt1, func() workload.Runner { return workload.S3Leaf(shrink).Build() }},
		{"S1 root", plt1, func() workload.Runner { return workload.S1Root(shrink).Build() }},
		{"S2 root", plt1, func() workload.Runner { return workload.S2Root(shrink).Build() }},
		{"S3 root", plt1, func() workload.Runner { return workload.S3Root(shrink).Build() }},
		{"S1 leaf PLT2", plt2, func() workload.Runner { return c.Leaf() }},
		{"400.perlbench", plt1, func() workload.Runner { return workload.SPECPerlbench().Build() }},
		{"429.mcf", plt1, func() workload.Runner { return workload.SPECMcf().Build() }},
		{"445.gobmk", plt1, func() workload.Runner { return workload.SPECGobmk().Build() }},
		{"471.omnetpp", plt1, func() workload.Runner { return workload.SPECOmnetpp().Build() }},
		{"CloudSuite WS", plt1, func() workload.Runner { return workload.CloudSuiteWebSearch().Build() }},
	}

	t := &Table{
		Title:   "Table I: per-core IPC, L3 load MPKI, L2 instr MPKI, branch MPKI",
		Headers: []string{"workload", "IPC", "L3$ load MPKI", "L2$ instr MPKI", "branch MPKI"},
		Note:    "simulated reproduction; paper S1 leaf fleet: 1.34 / 2.20 / 11.83 / 8.98",
	}
	// Columns on the shared leaf replay identical keys; the rest build
	// private workloads, so the columns are independent. The worker cap
	// bounds peak memory from concurrent builds.
	ms := runPoints(c, 4, len(cols), func(i int) workload.Metrics {
		col := cols[i]
		o.logf("table1: measuring %s...", col.name)
		return workload.Measure(col.build(), workload.MeasureConfig{
			Platform: col.plat,
			Cores:    1, SMTWays: 1, Threads: 1,
			Budget:         o.Budget,
			Seed:           o.Seed,
			WarmupFraction: 2.0,
		})
	})
	addRow := func(name string, m workload.Metrics) {
		t.AddRow(name,
			fmt.Sprintf("%.2f", m.IPC),
			fmt.Sprintf("%.2f", m.L3LoadMPKI),
			fmt.Sprintf("%.2f", m.L2InstrMPKI),
			fmt.Sprintf("%.2f", m.BranchMPKI))
	}
	for i, m := range ms {
		if cols[i].name == "S1 leaf PLT2" {
			addRow("S1 leaf PLT1", ms[0])
		}
		addRow(cols[i].name, m)
	}
	return t, nil
}

func runTable2(c *Context) (Result, error) {
	t := &Table{
		Title:   "Table II: platform attributes",
		Headers: []string{"attribute", "PLT1", "PLT2"},
	}
	p1, p2 := c.PLT1(), c.PLT2()
	rows := []struct {
		name string
		f    func(platform.Platform) string
	}{
		{"Microarchitecture", func(p platform.Platform) string { return p.Microarch }},
		{"Number of sockets", func(p platform.Platform) string { return fmt.Sprintf("%d", p.Sockets) }},
		{"Cores per socket", func(p platform.Platform) string { return fmt.Sprintf("%d", p.CoresPerSocket) }},
		{"SMT", func(p platform.Platform) string { return fmt.Sprintf("%d", p.SMTWays) }},
		{"Cache block size", func(p platform.Platform) string { return fmt.Sprintf("%d B", p.CacheBlock) }},
		{"L1-I$ (per core)", func(p platform.Platform) string { return fmt.Sprintf("%d KiB", p.L1I.Size>>10) }},
		{"L1-D$ (per core)", func(p platform.Platform) string { return fmt.Sprintf("%d KiB", p.L1D.Size>>10) }},
		{"Private L2$ (per core)", func(p platform.Platform) string { return fmt.Sprintf("%d KiB", p.L2.Size>>10) }},
		{"Shared L3$ (per socket)", func(p platform.Platform) string { return fmt.Sprintf("%d MiB", p.L3.Size>>20) }},
	}
	for _, r := range rows {
		t.AddRow(r.name, r.f(p1), r.f(p2))
	}
	return t, nil
}
