package model

import "testing"

func TestL4DesignValidate(t *testing.T) {
	bad := []L4Design{
		{},
		{CapacityBytes: 1 << 30}, // zero hit latency
		{CapacityBytes: 1 << 30, HitLatencyNS: 40, MissPenaltyNS: -1},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	for _, d := range []L4Design{BaselineL4(1 << 30), PessimisticL4(1 << 30)} {
		if err := d.Validate(); err != nil {
			t.Errorf("preset rejected: %v", err)
		}
	}
}

func TestPresetShapes(t *testing.T) {
	b := BaselineL4(1 << 30)
	if b.HitLatencyNS != 40 || b.MissPenaltyNS != 0 {
		t.Fatalf("baseline preset wrong: %+v", b)
	}
	p := PessimisticL4(1 << 30)
	if p.HitLatencyNS != 60 || p.MissPenaltyNS != 5 {
		t.Fatalf("pessimistic preset wrong: %+v", p)
	}
}
