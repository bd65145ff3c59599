package core

import (
	"math"
	"strings"
	"testing"

	"searchmem/internal/model"
)

// syntheticCurve is a paper-shaped analytic hit curve for tests: data hit
// rises with capacity toward a ceiling, code saturates by 16 MiB, the L4
// captures heap locality by ~1 GiB.
type syntheticCurve struct{}

func (syntheticCurve) DataHitRate(c int64) float64 {
	mib := float64(c) / (1 << 20)
	h := 0.8 * (1 - math.Exp(-mib/18))
	return h
}

func (syntheticCurve) CodeHitRate(c int64) float64 {
	mib := float64(c) / (1 << 20)
	if mib >= 16 {
		return 1
	}
	return mib / 16
}

func (syntheticCurve) L4HitRate(l4, l3 int64) float64 {
	mib := float64(l4) / (1 << 20)
	return 0.92 * (1 - math.Exp(-mib/350))
}

func testEvaluator() Evaluator {
	return Evaluator{
		Curve: syntheticCurve{},
		Params: Params{
			TL3NS:  14.4,
			TMEMNS: 65,
			// Equation 1 with an instruction-side penalty for code that
			// misses the L3 (the "18 MiB floor").
			IPC: func(amatNS, codeHit float64) float64 {
				return model.IPCFromAMAT(amatNS) * (1 - 0.3*(1-codeHit))
			},
			SMTSpeedup:  func(n int) float64 { return []float64{1, 1, 1.37}[min(n, 2)] },
			CoreAreaMiB: 4,
			Power:       model.PowerModel{SocketWatts: 145, BaselineCores: 18, CorePowerFrac: 0.0377},
		},
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// plt1Baseline is the paper's 18-core, 45 MiB, SMT-2 reference.
func plt1Baseline() Design {
	return Design{Cores: 18, L3MiB: 45, SMTWays: 2}
}

func TestDesignValidate(t *testing.T) {
	bad := []Design{
		{},
		{Cores: 18, L3MiB: 45},            // SMT missing
		{Cores: 18, SMTWays: 2},           // L3 missing
		{Cores: 0, L3MiB: 45, SMTWays: 2}, // cores missing
		{Cores: 18, L3MiB: 45, SMTWays: 2, L4: &model.L4Design{}}, // invalid L4
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := plt1Baseline().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDesignString(t *testing.T) {
	d := plt1Baseline()
	if !strings.Contains(d.String(), "18 cores") {
		t.Fatalf("string: %s", d.String())
	}
	l4 := model.BaselineL4(1 << 30)
	d.L4 = &l4
	if !strings.Contains(d.String(), "1024 MiB L4") {
		t.Fatalf("string with L4: %s", d.String())
	}
}

func TestEvaluateBaseline(t *testing.T) {
	e := testEvaluator()
	s := e.Evaluate(plt1Baseline())
	if s.QPS <= 0 {
		t.Fatal("no throughput")
	}
	if math.Abs(s.AreaMiB-117) > 1e-9 {
		t.Fatalf("baseline area %v, want 117", s.AreaMiB)
	}
	if s.AMATNS <= e.Params.TL3NS || s.AMATNS >= e.Params.TMEMNS {
		t.Fatalf("AMAT %v out of range", s.AMATNS)
	}
	if math.Abs(s.RelPower-1) > 1e-9 {
		t.Fatalf("baseline relative power %v", s.RelPower)
	}
}

func TestL4ImprovesDesign(t *testing.T) {
	e := testEvaluator()
	rebalanced := Design{Cores: 23, L3MiB: 23, SMTWays: 2}
	noL4 := e.Evaluate(rebalanced)
	l4 := model.BaselineL4(1 << 30)
	withL4 := rebalanced
	withL4.L4 = &l4
	got := e.Evaluate(withL4)
	if got.QPS <= noL4.QPS {
		t.Fatalf("L4 did not help: %v vs %v", got.QPS, noL4.QPS)
	}
	if got.AMATNS >= noL4.AMATNS {
		t.Fatal("L4 did not cut AMAT")
	}
	// The paper's headline: rebalance + 1 GiB L4 beats the baseline by a
	// decent margin.
	base := e.Evaluate(plt1Baseline())
	imp, _ := Relative(base, got)
	if imp < 0.10 || imp > 0.60 {
		t.Fatalf("combined improvement %v out of plausible band", imp)
	}
}

func TestRelativeEnergy(t *testing.T) {
	e := testEvaluator()
	base := e.Evaluate(plt1Baseline())
	better := e.Evaluate(Design{Cores: 23, L3MiB: 23, SMTWays: 2})
	imp, energy := Relative(base, better)
	if imp <= 0 {
		t.Fatalf("rebalance should improve: %v", imp)
	}
	// More cores cost power, but QPS rises at least as fast: energy per
	// query must not balloon (the paper argues the trade is
	// energy-neutral-ish).
	if energy <= 0 || energy > 1.1 {
		t.Fatalf("energy per query %v", energy)
	}
}

func TestExploreFindsInteriorOptimum(t *testing.T) {
	e := testEvaluator()
	best, frontier := e.Explore(plt1Baseline(), Constraint{}, nil)
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	if best.QPS <= e.Evaluate(plt1Baseline()).QPS {
		t.Fatal("exploration found nothing better than the baseline")
	}
	// Iso-area must hold for everything on the frontier.
	for _, s := range frontier {
		if s.AreaMiB > 117+1e-6 {
			t.Fatalf("design %v exceeds area budget: %v", s.Design, s.AreaMiB)
		}
	}
	// With the instruction penalty active, the optimum is interior: not
	// the minimum cache point.
	if best.Design.L3PerCoreMiB() <= 0.26 {
		t.Fatalf("optimum degenerate at %v MiB/core", best.Design.L3PerCoreMiB())
	}
}

func TestExploreWithL4(t *testing.T) {
	e := testEvaluator()
	best, _ := e.Explore(plt1Baseline(), Constraint{}, []int64{256, 1024})
	if best.Design.L4 == nil {
		t.Fatal("L4 designs should win the exploration")
	}
	if best.Design.L4.CapacityBytes != 1<<30 {
		t.Fatalf("best L4 %d MiB, expected the 1 GiB point", best.Design.L4.CapacityBytes>>20)
	}
	base := e.Evaluate(plt1Baseline())
	imp, _ := Relative(base, best)
	if imp < 0.15 {
		t.Fatalf("best combined design only %+.1f%%", 100*imp)
	}
}

func TestExploreIsoPower(t *testing.T) {
	e := testEvaluator()
	// The paper's iso-power observation: capping power at the baseline
	// forces core count <= 18, shrinking area while keeping performance
	// within a few percent.
	best, frontier := e.Explore(plt1Baseline(), Constraint{MaxRelPower: 1.0}, nil)
	for _, s := range frontier {
		if s.RelPower > 1+1e-9 {
			t.Fatalf("iso-power violated: %v", s.RelPower)
		}
		if s.Design.Cores > 18 {
			t.Fatalf("iso-power frontier has %d cores", s.Design.Cores)
		}
	}
	base := e.Evaluate(plt1Baseline())
	imp, _ := Relative(base, best)
	if imp < -0.05 {
		t.Fatalf("iso-power best is %v below baseline", imp)
	}
}

func TestEvaluatePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid design accepted")
		}
	}()
	testEvaluator().Evaluate(Design{})
}
