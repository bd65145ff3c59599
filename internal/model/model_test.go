package model

import (
	"math"
	"testing"
)

func TestAMATL3(t *testing.T) {
	// Perfect hit rate costs tL3; zero hit rate costs tMEM.
	if got := AMATL3(1, 14, 65); got != 14 {
		t.Fatalf("AMAT(h=1) = %v", got)
	}
	if got := AMATL3(0, 14, 65); got != 65 {
		t.Fatalf("AMAT(h=0) = %v", got)
	}
	// The paper's Figure 8b x-axis range (50-70 ns) corresponds to hit
	// rates roughly 0 to 0.3 at these latencies... verify midpoint math.
	got := AMATL3(0.65, 14.4, 65)
	want := 0.65*14.4 + 0.35*65
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("AMAT = %v, want %v", got, want)
	}
}

func TestAMATWithL4(t *testing.T) {
	// With hL4 = 0 and no penalty, reduces to AMATL3.
	a := AMATWithL4(0.6, 0, 14.4, 40, 65, 0)
	b := AMATL3(0.6, 14.4, 65)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("degenerate L4: %v vs %v", a, b)
	}
	// A perfect L4 at 40 ns caps post-L3 cost at 40 ns.
	if got := AMATWithL4(0, 1, 14.4, 40, 65, 0); got != 40 {
		t.Fatalf("perfect L4: %v", got)
	}
	// The miss penalty only applies to L4 misses.
	withPen := AMATWithL4(0, 0.5, 14.4, 40, 65, 5)
	if math.Abs(withPen-(0.5*40+0.5*70)) > 1e-12 {
		t.Fatalf("penalty math: %v", withPen)
	}
	// A useful L4 strictly lowers AMAT (40 ns < 65 ns memory).
	if AMATWithL4(0.6, 0.5, 14.4, 40, 65, 0) >= AMATL3(0.6, 14.4, 65) {
		t.Fatal("L4 did not reduce AMAT")
	}
}

func TestEquation1Anchors(t *testing.T) {
	// The published model: IPC = -8.62e-3*AMAT + 1.78.
	if got := IPCFromAMAT(50); math.Abs(got-(1.78-0.431)) > 1e-9 {
		t.Fatalf("Eq1(50) = %v", got)
	}
	// Figure 8b plots IPC ~1.2-1.35 for AMAT 50-70 ns; check the range.
	lo, hi := IPCFromAMAT(70), IPCFromAMAT(50)
	if lo < 1.1 || hi > 1.4 || lo >= hi {
		t.Fatalf("Eq1 range [%v, %v] inconsistent with Figure 8b", lo, hi)
	}
	// Far extrapolation clamps instead of going negative.
	if got := IPCFromAMAT(1000); got != 0.05 {
		t.Fatalf("clamp: %v", got)
	}
}

func TestAreaModel(t *testing.T) {
	m := AreaModel{CoreAreaMiB: 4}
	// The PLT1 baseline: 18 cores at 2.5 MiB/core = 117 area-MiB.
	if got := m.Area(18, 2.5); math.Abs(got-117) > 1e-12 {
		t.Fatalf("baseline area %v", got)
	}
	// The paper's optimal design: c = 1 MiB/core gives 23 cores in the
	// same area (117/5 = 23.4, quantized down to 23).
	cores := m.CoresFor(117, 1)
	if math.Floor(cores) != 23 {
		t.Fatalf("cores at 1 MiB/core = %v, want floor 23", cores)
	}
	// Round trip.
	if got := m.CoresFor(m.Area(10, 2), 2); math.Abs(got-10) > 1e-12 {
		t.Fatalf("round trip %v", got)
	}
}

func TestThroughputModel(t *testing.T) {
	m := ThroughputModel{TL3NS: 14.4, TMEMNS: 65, IPCLine: Equation1, SMTSpeedup: 1.37}
	base := m.QPS(18, 0.65)
	if base <= 0 {
		t.Fatal("QPS must be positive")
	}
	// More cores at the same hit rate: linear scaling.
	if got := m.QPS(36, 0.65); math.Abs(got/base-2) > 1e-9 {
		t.Fatalf("core scaling: %v", got/base)
	}
	// A better hit rate increases QPS.
	if m.QPS(18, 0.75) <= base {
		t.Fatal("higher hit rate did not help")
	}
	// An L4 increases QPS at fixed L3 hit rate.
	if m.QPSWithL4(18, 0.65, 0.6, 40, 0) <= base {
		t.Fatal("L4 did not help")
	}
	// A pessimistic L4 (60 ns, 5 ns penalty) helps less than the
	// baseline L4 but still beats no L4 at decent hit rates.
	good := m.QPSWithL4(18, 0.65, 0.6, 40, 0)
	pess := m.QPSWithL4(18, 0.65, 0.6, 60, 5)
	if !(base < pess && pess < good) {
		t.Fatalf("ordering: base %v, pessimistic %v, good %v", base, pess, good)
	}
}

func TestThroughputValidate(t *testing.T) {
	bad := []ThroughputModel{
		{},
		{TL3NS: 20, TMEMNS: 10, SMTSpeedup: 1},
		{TL3NS: 10, TMEMNS: 60, SMTSpeedup: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 127); math.Abs(got-0.27) > 1e-12 {
		t.Fatalf("improvement %v", got)
	}
	if Improvement(0, 5) != 0 {
		t.Fatal("zero baseline must yield 0")
	}
}

func TestPowerModel(t *testing.T) {
	// Paper: +5 cores over an 18-core baseline costs ~18.9% socket power.
	p := PowerModel{SocketWatts: 145, BaselineCores: 18, CorePowerFrac: 0.0377}
	base := p.SocketPower(18)
	inc := (p.SocketPower(23) - base) / base
	if math.Abs(inc-0.189) > 0.005 {
		t.Fatalf("power increase %v, paper says ~18.9%%", inc)
	}
	// 27 watts at 145 W baseline (the paper's absolute figure).
	delta := p.SocketPower(23) - p.SocketPower(18)
	if math.Abs(delta-27) > 1.5 {
		t.Fatalf("delta watts %v, paper says ~27", delta)
	}
}

func TestEnergyPerQuery(t *testing.T) {
	// Equal power and QPS scaling is energy-neutral (the paper's
	// cache-for-cores argument).
	if got := EnergyPerQuery(1.2, 1.2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("energy %v", got)
	}
	// Performance up more than power: energy per query drops.
	if got := EnergyPerQuery(1.19, 1.27); got >= 1 {
		t.Fatalf("L4-style config should cut energy/query, got %v", got)
	}
	if !math.IsInf(EnergyPerQuery(1, 0), 1) {
		t.Fatal("zero QPS must be infinite energy")
	}
}
