package experiments

import (
	"fmt"

	"searchmem/internal/platform"
	"searchmem/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "splitl2",
		Title:    "Split I/D L2 caches what-if (extension)",
		PaperRef: "§V (extension)",
		Run:      runSplitL2,
	})
}

// runSplitL2 reproduces the §V analysis: splitting the unified 256 KiB L2
// into 128 KiB instruction and data halves. The paper's conclusion — the
// improved L2 instruction hit rate is offset by the decreased L2 data hit
// rate — should fall out of the simulated rates.
func runSplitL2(c *Context) (Result, error) {
	unifiedCfg := oneCore(c, platform.PLT1(), c.Opts.Seed+31, 1.5)
	splitCfg := unifiedCfg
	splitCfg.SplitL2 = true
	// Both variants replay the same recording (identical keys).
	ms := measureMultiSharded(c, c.Leaf(), []workload.MeasureConfig{unifiedCfg, splitCfg})
	unified, split := ms[0], ms[1]

	t := &Table{
		Title:   "Split I/D L2 what-if (256 KiB unified vs 128+128 KiB split)",
		Headers: []string{"metric", "unified", "split"},
		Note: "paper §V: unlikely to be beneficial — the improved L2 instruction " +
			"hit rate is offset by the decrease in L2 hit rate for data",
	}
	rows := []struct {
		name string
		u, s float64
	}{
		{"L2 instr MPKI", unified.L2InstrMPKI, split.L2InstrMPKI},
		{"L2 data MPKI", unified.L2DataMPKI, split.L2DataMPKI},
		{"L2 total MPKI", unified.L2InstrMPKI + unified.L2DataMPKI, split.L2InstrMPKI + split.L2DataMPKI},
		{"modeled IPC", unified.IPC, split.IPC},
	}
	for _, r := range rows {
		t.AddRow(r.name, fmt.Sprintf("%.2f", r.u), fmt.Sprintf("%.2f", r.s))
	}
	return t, nil
}
