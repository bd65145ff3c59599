package experiments

import (
	"testing"

	"searchmem/internal/core"
	"searchmem/internal/model"
	"searchmem/internal/platform"
)

// TestHeadlineShapes verifies the paper's §IV headline results at full
// scale: the cache-for-cores optimum is interior and near 1 MiB/core, and
// the L4 configurations order and land near the paper's improvements.
// It runs the Figure 10, 11 and 14 pipelines at Full() scale, and holds
// explore to them there (checkExploreReadsPerfModel); skipped under -short.
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale headline reproduction")
	}
	if raceDetectorOn {
		t.Skip("full-scale headline reproduction exceeds the race-mode time budget; the parallel engine's race coverage lives in TestConcurrentExperimentsShareOneContext and the serving/workload race tests")
	}
	opts := Full()
	opts.Logf = t.Logf
	ctx := NewContext(opts)

	// --- Figure 10: interior optimum in the cache-for-cores trade-off ---
	res, err := mustByID(t, "fig10").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fig := res.(*Figure)
	fig10 := fig
	s := fig.Get("SMT on (quantized)")
	if s == nil {
		t.Fatal("missing series")
	}
	bestX, bestY := 0.0, -1.0
	for i := range s.X {
		if s.Y[i] > bestY {
			bestX, bestY = s.X[i], s.Y[i]
		}
	}
	// Paper: optimum at 1 MiB/core, +14%. Accept an optimum in
	// [0.5, 1.25] MiB/core with improvement between +8% and +40%.
	if bestX < 0.5 || bestX > 1.25 {
		t.Errorf("fig10 optimum at %v MiB/core, paper ~1", bestX)
	}
	if bestY < 0.08 || bestY > 0.40 {
		t.Errorf("fig10 optimum improvement %v, paper +14%%", bestY)
	}
	// The baseline split (2.25 MiB/core) must be ~0 and the optimum must
	// be an interior point or the smallest c must not dominate by much.
	if y := s.Y[len(s.Y)-1]; bestX == 2.25 {
		t.Errorf("no benefit found from trading cache for cores (best at 2.25, y=%v)", y)
	}

	// --- Figure 11: crossing slopes ---
	res, err = mustByID(t, "fig11").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fig = res.(*Figure)
	cores, l3 := fig.Get("Cores"), fig.Get("L3 Cache")
	if cores == nil || l3 == nil {
		t.Fatal("fig11 series missing")
	}
	// At the most aggressive point the core gain is large positive and
	// the L3 loss clearly negative.
	pointAt := func(s *Series, x float64) float64 {
		for i := range s.X {
			if s.X[i] == x {
				return s.Y[i]
			}
		}
		t.Fatalf("series %s has no point at %v", s.Name, x)
		return 0
	}
	if g := pointAt(cores, 0.5); g < 0.2 {
		t.Errorf("fig11 core gain at 0.5 MiB/core = %v, want > 0.2", g)
	}
	if l := pointAt(l3, 0.5); l > -0.05 {
		t.Errorf("fig11 L3 loss at 0.5 MiB/core = %v, want < -0.05", l)
	}

	// --- Figure 14: L4 configurations ---
	res, err = mustByID(t, "fig14").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fig = res.(*Figure)
	at := func(name string, mb float64) float64 {
		sr := fig.Get(name)
		if sr == nil {
			t.Fatalf("fig14 series %q missing", name)
		}
		for i := range sr.X {
			if sr.X[i] == mb {
				return sr.Y[i]
			}
		}
		t.Fatalf("fig14 %s has no point at %v MiB", name, mb)
		return 0
	}
	base1g := at("Baseline", 1024)
	pess1g := at("Pessimistic", 1024)
	assoc1g := at("Associative", 1024)
	fut1g := at("Future", 1024)

	// Paper: +27% baseline, +23% pessimistic, ~+1pp associative, +38%
	// future. Accept the same ordering with magnitudes in band.
	if base1g < 0.15 || base1g > 0.45 {
		t.Errorf("1 GiB baseline improvement %v, paper +27%%", base1g)
	}
	if !(pess1g < base1g) {
		t.Errorf("pessimistic (%v) not below baseline (%v)", pess1g, base1g)
	}
	if pess1g < 0.10 {
		t.Errorf("pessimistic 1 GiB %v, paper +23%%", pess1g)
	}
	if assoc1g < base1g-0.005 {
		t.Errorf("associative (%v) below direct-mapped (%v)", assoc1g, base1g)
	}
	if assoc1g > base1g+0.05 {
		t.Errorf("associative gain over direct too large: %v vs %v", assoc1g, base1g)
	}
	if !(fut1g > base1g) {
		t.Errorf("future (%v) not above baseline (%v): trend reversed", fut1g, base1g)
	}
	// Larger L4s must not hurt.
	if at("Baseline", 2048) < base1g-0.01 {
		t.Errorf("2 GiB L4 worse than 1 GiB")
	}
	// And capacity matters: 128 MiB strictly below 1 GiB.
	if at("Baseline", 128) >= base1g {
		t.Errorf("128 MiB L4 not below 1 GiB")
	}

	checkExploreReadsPerfModel(t, ctx, fig10, fig)
}

// TestExploreReadsPerfModel holds explore to the §IV figures at Fast()
// scale (smoke scale under the race detector); TestHeadlineShapes does the
// same at Full().
func TestExploreReadsPerfModel(t *testing.T) {
	opts := Fast()
	if raceDetectorOn {
		opts = lawScale()
	}
	ctx := NewContext(opts)
	var figs [2]*Figure
	for i, id := range []string{"fig10", "fig14"} {
		res, err := mustByID(t, id).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		figs[i] = res.(*Figure)
	}
	checkExploreReadsPerfModel(t, ctx, figs[0], figs[1])
}

// checkExploreReadsPerfModel is the one-IPC-function law: explore's
// evaluator scores a design with the perf model itself, so on every design
// that fig10 or fig14 also draws it gives their number exactly. It must
// reproduce, with ==, the 18-core 45 MiB baseline, each "SMT on
// (quantized)" point of fig10 and each "Baseline" L4 point of fig14. An IPC
// read from a line fitted to the model, or a hand copy of its instruction
// term, breaks the equality.
func checkExploreReadsPerfModel(t *testing.T, ctx *Context, fig10, fig14 *Figure) {
	t.Helper()
	ev := exploreEvaluator(ctx)
	pm := newPerfModel(ctx)
	smt := platform.PLT1().SMT.Speedup(2)
	base := ev.Evaluate(core.Design{Cores: 18, L3MiB: 45, SMTWays: 2})
	if want := baselineQPS(pm, smt); base.QPS != want {
		t.Errorf("explore's baseline QPS %v, fig10's %v", base.QPS, want)
	}

	s := fig10.Get("SMT on (quantized)")
	designs := tradeoffSweep(ctx, pm, smt, true)
	if s == nil || len(s.Y) != len(designs) {
		t.Fatalf("fig10 \"SMT on (quantized)\" = %+v, want %d points", s, len(designs))
	}
	for i, d := range designs {
		got := ev.Evaluate(core.Design{Cores: int(d.cores), L3MiB: d.cores * d.l3PerCore, SMTWays: 2})
		if got.QPS != d.qps || model.Improvement(base.QPS, got.QPS) != s.Y[i] {
			t.Errorf("fig10 at %v MiB/core (%v cores): explore QPS %v (%v), fig10 %v (%v)",
				d.l3PerCore, d.cores, got.QPS, model.Improvement(base.QPS, got.QPS), d.qps, s.Y[i])
		}
	}

	s = fig14.Get("Baseline")
	if s == nil || len(s.Y) != len(fig14Sizes) {
		t.Fatalf("fig14 \"Baseline\" = %+v, want %d points", s, len(fig14Sizes))
	}
	for i, mb := range fig14Sizes {
		l4 := model.BaselineL4(mb << 20)
		got := ev.Evaluate(core.Design{Cores: 23, L3MiB: 23, SMTWays: 2, L4: &l4})
		if imp := model.Improvement(base.QPS, got.QPS); imp != s.Y[i] {
			t.Errorf("fig14 Baseline at %d MiB: explore %v, fig14 %v", mb, imp, s.Y[i])
		}
	}
}
