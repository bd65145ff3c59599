package cpu

import (
	"math"
	"testing"

	"searchmem/internal/stats"
)

func tlb4K() TLBConfig {
	return TLBConfig{
		PageSize:  4 << 10,
		L1Entries: 64, L1Assoc: 4,
		L2Entries: 1536, L2Assoc: 6,
		WalkLatencyNS: 30,
		L2LatencyNS:   3,
	}
}

func TestTLBValidate(t *testing.T) {
	bad := []TLBConfig{
		{PageSize: 0},
		{PageSize: 3000, L1Entries: 64, L1Assoc: 4, L2Entries: 64, L2Assoc: 4},
		{PageSize: 4096, L1Entries: 0, L1Assoc: 4, L2Entries: 64, L2Assoc: 4},
		{PageSize: 4096, L1Entries: 64, L1Assoc: 5, L2Entries: 64, L2Assoc: 4},
		{PageSize: 4096, L1Entries: 64, L1Assoc: 4, L2Entries: 64, L2Assoc: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := tlb4K().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTLBHitPath(t *testing.T) {
	tlb := NewTLB(tlb4K())
	if lat := tlb.Translate(0x1000); lat != 30 {
		t.Fatalf("cold translation latency %v, want walk (30)", lat)
	}
	if lat := tlb.Translate(0x1008); lat != 0 {
		t.Fatalf("same-page translation latency %v, want 0", lat)
	}
	if tlb.L1Hits != 1 || tlb.Walks != 1 {
		t.Fatalf("counters: %+v", tlb)
	}
}

func TestTLBL2Path(t *testing.T) {
	tlb := NewTLB(tlb4K())
	// Touch enough pages to overflow the 64-entry L1 but stay in L2,
	// then revisit the first page.
	for p := uint64(0); p < 512; p++ {
		tlb.Translate(p << 12)
	}
	lat := tlb.Translate(0)
	if lat != 3 {
		t.Fatalf("L2 hit latency %v, want 3", lat)
	}
	if tlb.L2Hits == 0 {
		t.Fatal("no L2 hits recorded")
	}
}

func TestHugePagesCutWalks(t *testing.T) {
	// The Figure 2c experiment in miniature: a large random working set
	// causes frequent walks at 4 KiB pages and nearly none at 2 MiB.
	run := func(pageSize int) float64 {
		cfg := tlb4K()
		cfg.PageSize = pageSize
		tlb := NewTLB(cfg)
		rng := stats.NewRNG(7)
		const footprint = 1 << 30 // 1 GiB
		for i := 0; i < 100000; i++ {
			tlb.Translate(rng.Uint64n(footprint))
		}
		return float64(tlb.Walks) / float64(tlb.Translations())
	}
	small, huge := run(4<<10), run(2<<20)
	if huge >= small {
		t.Fatalf("huge pages did not reduce walk rate: %v vs %v", huge, small)
	}
	if small < 0.5 {
		t.Fatalf("4K walk rate %v suspiciously low for 1 GiB random set", small)
	}
	if huge > 0.1 {
		t.Fatalf("2M walk rate %v too high (512 pages fit in the TLB)", huge)
	}
}

func TestTLBAvgLatency(t *testing.T) {
	tlb := NewTLB(tlb4K())
	tlb.Translate(0) // walk: 30
	tlb.Translate(0) // L1 hit: 0
	want := 15.0
	if got := tlb.AvgLatencyNS(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("avg latency %v, want %v", got, want)
	}
	if tlb.Translations() != 2 {
		t.Fatalf("translations %d", tlb.Translations())
	}
}

func TestTLBPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid TLB config accepted")
		}
	}()
	NewTLB(TLBConfig{})
}
