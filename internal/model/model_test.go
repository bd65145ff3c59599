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
	p := PowerModel{BaselineCores: 18, CorePowerFrac: 0.0377}
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
