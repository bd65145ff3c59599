package workload

import (
	"math"
	"testing"

	"searchmem/internal/cache"
	"searchmem/internal/platform"
	"searchmem/internal/trace"
)

// Calibration anchors from the paper (DESIGN.md §5). These tests run the
// full-scale profiles and are the regression fence around the calibrated
// constants; they are skipped under -short.

func measureFull(t *testing.T, r Runner, budget int64) Metrics {
	t.Helper()
	return Measure(r, MeasureConfig{
		Platform: platform.PLT1(),
		Cores:    1, SMTWays: 1, Threads: 1,
		Budget:         budget,
		Seed:           1,
		WarmupFraction: 2.0,
	})
}

func TestCalibrationS1Leaf(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale calibration")
	}
	m := measureFull(t, S1Leaf(1).Build(), 6_000_000)

	// Table I anchors: fleet IPC 1.34, lab 1.27.
	if m.IPC < 1.0 || m.IPC > 1.7 {
		t.Errorf("S1 leaf IPC = %.2f, paper 1.27-1.34", m.IPC)
	}
	// Branch MPKI 8.98 fleet / 9.47 lab.
	if m.BranchMPKI < 6 || m.BranchMPKI > 12 {
		t.Errorf("branch MPKI = %.2f, paper ~9", m.BranchMPKI)
	}
	// L2 instruction MPKI 11.83 fleet / 10.78 lab.
	if m.L2InstrMPKI < 7 || m.L2InstrMPKI > 17 {
		t.Errorf("L2 instr MPKI = %.2f, paper ~11-12", m.L2InstrMPKI)
	}
	// L3 load MPKI 2.20 fleet / 2.43 lab. The reproduction runs ~2x high:
	// the static-rank table sized for the Figure 9-11 trade-off raises
	// steady-state L3 data misses, and short traces add compulsory
	// misses (EXPERIMENTS.md, Table I notes).
	if m.L3LoadMPKI < 0.7 || m.L3LoadMPKI > 7 {
		t.Errorf("L3 load MPKI = %.2f, paper ~2.2-2.4", m.L3LoadMPKI)
	}
	// L3 instruction misses negligible in steady state.
	if m.L3InstrMPKI > 1.5 {
		t.Errorf("L3 instr MPKI = %.2f, paper ~0", m.L3InstrMPKI)
	}

	// Figure 3 breakdown within a few points per category.
	bd := m.Breakdown
	checks := []struct {
		name      string
		got, want float64
	}{
		{"retiring", bd.Retiring, 0.32},
		{"badspec", bd.BadSpec, 0.154},
		{"fe-latency", bd.FELatency, 0.138},
		{"fe-bandwidth", bd.FEBandwidth, 0.097},
		{"be-core", bd.BECore, 0.085},
		{"be-memory", bd.BEMemory, 0.205},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 0.07 {
			t.Errorf("Top-Down %s = %.3f, paper %.3f", c.name, c.got, c.want)
		}
	}
}

func TestCalibrationComparisonOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale calibration")
	}
	// The qualitative Table I contrasts of §II-D, using fast budgets.
	search := measureFull(t, S1Leaf(2).Build(), 4_000_000)
	gobmk := measureFull(t, SPECGobmk().Build(), 2_000_000)
	mcf := measureFull(t, SPECMcf().Build(), 2_000_000)
	cloud := measureFull(t, CloudSuiteWebSearch().Build(), 2_000_000)
	perl := measureFull(t, SPECPerlbench().Build(), 2_000_000)

	// "L2 MPKI for instructions is at least 3.6x higher than the most
	// code-intensive SPEC application (445.gobmk)".
	if search.L2InstrMPKI < 3*gobmk.L2InstrMPKI {
		t.Errorf("search L2I %.2f not >> gobmk %.2f", search.L2InstrMPKI, gobmk.L2InstrMPKI)
	}
	// Search is less memory-bound than mcf but more than perlbench.
	if !(perl.L3LoadMPKI < search.L3LoadMPKI && search.L3LoadMPKI < mcf.L3LoadMPKI) {
		t.Errorf("L3 ordering: perl %.2f, search %.2f, mcf %.2f",
			perl.L3LoadMPKI, search.L3LoadMPKI, mcf.L3LoadMPKI)
	}
	// CloudSuite shows much lower MPKI for branches, L2I, and L3 data.
	if cloud.BranchMPKI > search.BranchMPKI/2 {
		t.Errorf("CloudSuite branch MPKI %.2f not << search %.2f", cloud.BranchMPKI, search.BranchMPKI)
	}
	if cloud.L2InstrMPKI > search.L2InstrMPKI/4 {
		t.Errorf("CloudSuite L2I %.2f not << search %.2f", cloud.L2InstrMPKI, search.L2InstrMPKI)
	}
	if cloud.L3LoadMPKI > 0.5 {
		t.Errorf("CloudSuite L3 load MPKI %.2f, paper 0.03", cloud.L3LoadMPKI)
	}
	// IPC ordering: mcf < omnetpp-ish < search < perlbench.
	if !(mcf.IPC < search.IPC && search.IPC < perl.IPC) {
		t.Errorf("IPC ordering: mcf %.2f, search %.2f, perl %.2f", mcf.IPC, search.IPC, perl.IPC)
	}
}

func TestCalibrationSweepWorkingSets(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale calibration")
	}
	r := S1LeafSweep(1).Build()
	// One profiler per segment: per-segment curves use segment-local
	// reuse distances so that the sweep scale factor (which shrinks
	// capacities and working sets but not per-instruction access rates)
	// does not artificially inflate cross-segment interleaving.
	var sds [trace.NumSegments]*cache.StackDist
	for i := range sds {
		sds[i] = cache.NewStackDist(64)
	}
	r.Run(16, 24_000_000, 3, Sinks{Access: func(a trace.Access) { sds[a.Seg].Observe(a) }})

	// Heap working set approaches 1 GiB paper-equivalent at 16 threads
	// (Figure 5); at 24M instructions it is still filling, so accept a
	// wide band around it. Every distinct 64 B block is one cold miss.
	heapWS := PaperUnits(sds[trace.Heap].ColdMisses(trace.Heap) * 64)
	if heapWS < 256<<20 || heapWS > 4<<30 {
		t.Errorf("heap working set %.2f GiB-paper, paper ~1 GiB", float64(heapWS)/(1<<30))
	}

	// Post-L2 hit rates. Code and heap have finite working sets that the
	// paper's 135-billion-instruction traces fully amortize, so their
	// cold misses are excluded (steady state); the shard's cold misses
	// are structural (its working set grows without bound, Figure 5) and
	// stay in.
	l2eff := int64(16 * (256 << 10) / SweepScale)
	hit := func(seg trace.Segment, c int64) float64 {
		var cold float64
		if seg == trace.Code || seg == trace.Heap {
			cold = float64(sds[seg].ColdMisses(seg))
		}
		base := sds[seg].Misses(seg, l2eff) - cold
		if base <= 0 {
			return 1
		}
		return 1 - (sds[seg].Misses(seg, c)-cold)/base
	}
	// Figure 6b anchors (capacities in sim units; paper = x64):
	// heap ~95% at 1 GiB-paper and clearly lower at 256 MiB-paper.
	h1g := hit(trace.Heap, SimUnits(1<<30))
	h256 := hit(trace.Heap, SimUnits(256<<20))
	if h1g < 0.80 {
		t.Errorf("heap hit at 1 GiB-paper = %.2f, paper ~0.95", h1g)
	}
	if h256 >= h1g {
		t.Errorf("heap hit not increasing: %.2f at 256 MiB vs %.2f at 1 GiB", h256, h1g)
	}
	// Shard barely cacheable even at 2 GiB-paper (paper < 50%).
	if s2g := hit(trace.Shard, SimUnits(2<<30)); s2g > 0.5 {
		t.Errorf("shard hit at 2 GiB-paper = %.2f, paper < 0.5", s2g)
	}
	// Code captured by a 16 MiB-paper cache (paper: sufficient).
	if c16 := hit(trace.Code, SimUnits(16<<20)); c16 < 0.95 {
		t.Errorf("code hit at 16 MiB-paper = %.2f, paper ~1", c16)
	}
}
