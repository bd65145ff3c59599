package model

import (
	"math"
	"testing"
)

func TestL4DesignValidate(t *testing.T) {
	bad := []L4Design{
		{},
		{CapacityBytes: 1 << 30}, // zero hit latency
		{CapacityBytes: 1 << 30, HitLatencyNS: 40, MissPenaltyNS: -1},
		{CapacityBytes: 1 << 30, HitLatencyNS: 40, RemoteFraction: 1.5},
		{CapacityBytes: 1 << 30, HitLatencyNS: 40, Associativity: -2},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	for _, d := range []L4Design{BaselineL4(1 << 30), PessimisticL4(1 << 30), AssociativeL4(1 << 30)} {
		if err := d.Validate(); err != nil {
			t.Errorf("preset rejected: %v", err)
		}
	}
}

func TestPresetShapes(t *testing.T) {
	b := BaselineL4(1 << 30)
	if b.HitLatencyNS != 40 || b.MissPenaltyNS != 0 || !b.ParallelLookup || b.Associativity != 1 {
		t.Fatalf("baseline preset wrong: %+v", b)
	}
	p := PessimisticL4(1 << 30)
	if p.HitLatencyNS != 60 || p.MissPenaltyNS != 5 || p.ParallelLookup {
		t.Fatalf("pessimistic preset wrong: %+v", p)
	}
	a := AssociativeL4(1 << 30)
	if a.Associativity != 0 || a.HitLatencyNS != 40 {
		t.Fatalf("associative preset wrong: %+v", a)
	}
}

func TestEffectiveHitLatency(t *testing.T) {
	d := BaselineL4(1 << 30)
	d.NUMAPenaltyNS = 20
	d.RemoteFraction = 0.5
	if got := d.EffectiveHitLatencyNS(); math.Abs(got-50) > 1e-12 {
		t.Fatalf("effective hit latency %v, want 50", got)
	}
	if got := BaselineL4(1 << 30).EffectiveHitLatencyNS(); got != 40 {
		t.Fatalf("single-socket latency %v", got)
	}
}
