package experiments

import (
	"strings"
	"testing"

	"searchmem/internal/obs"
	"searchmem/internal/trace"
)

// TestTierSweepAcceptance pins the tiered-memory headline: at least one
// near:far split in the figT1 grid keeps >=75% of the shard's touched pages
// in the far tier while degrading AMAT by <=10% over the all-near baseline —
// i.e. most shard bytes can live in cheap memory nearly for free, because
// post-L4 shard traffic is cold (the same cold-miss structure §III-C
// measures).
func TestTierSweepAcceptance(t *testing.T) {
	c := NewContext(Fast())
	data, err := tierSweep(c)
	if err != nil {
		t.Fatalf("tierSweep: %v", err)
	}
	base := data.baseline
	if base.Mem == nil || base.Mem.Pages == 0 {
		t.Fatal("baseline carries no mem stats")
	}
	if base.Mem.FarReads != 0 || base.Mem.FarPages != 0 {
		t.Fatal("all-near baseline touched the far tier")
	}
	if rh := base.Mem.RowHitRate(); rh <= 0 || rh >= 1 {
		t.Fatalf("baseline row-buffer hit rate %v not in (0,1)", rh)
	}

	found := false
	for _, p := range data.points {
		st := p.m.Mem
		if st == nil {
			t.Fatalf("point near=%v policy=%v carries no mem stats", p.nearFrac, p.policy)
		}
		farFrac := st.FarPageFrac(trace.Shard)
		dAMAT := p.m.AMATNS/base.AMATNS - 1
		if farFrac >= 0.75 && dAMAT <= 0.10 {
			found = true
		}
		// Every point's QPS-per-memory-dollar inputs must be well-formed:
		// positive dollars (both tiers priced) and a positive QPS ratio.
		if d := tierDollars(base.Mem.Pages, st.NearPages); d <= 0 {
			t.Fatalf("point near=%v policy=%v: non-positive memory dollars %v", p.nearFrac, p.policy, d)
		}
		if rel := tierQPSRel(p.m.AMATNS, base.AMATNS); rel <= 0 || rel > 1 {
			t.Fatalf("point near=%v policy=%v: QPS ratio %v outside (0,1]", p.nearFrac, p.policy, rel)
		}
	}
	if !found {
		for _, p := range data.points {
			t.Logf("near=%v policy=%v farShard=%.3f dAMAT=%.3f",
				p.nearFrac, p.policy, p.m.Mem.FarPageFrac(trace.Shard), p.m.AMATNS/base.AMATNS-1)
		}
		t.Fatal("no sweep point holds >=75% of shard pages far within 10% AMAT degradation")
	}
}

// TestFigT1RendersCostColumn checks the sweep table reports the Eq. 1
// QPS-per-memory-dollar economics next to AMAT, and that a far-tier point
// beats the all-near baseline on it (that is the entire argument for
// tiering: nearly-flat AMAT over a much cheaper memory bill).
func TestFigT1RendersCostColumn(t *testing.T) {
	c := NewContext(Fast())
	res, err := mustByID(t, "figT1").Run(c)
	if err != nil {
		t.Fatalf("figT1: %v", err)
	}
	out := res.Render()
	if !strings.Contains(out, "QPS/mem$") {
		t.Fatalf("figT1 table missing QPS/mem$ column:\n%s", out)
	}
	if !strings.Contains(out, "row-hit") || !strings.Contains(out, "mig GB/s") {
		t.Fatalf("figT1 table missing row-buffer or migration columns:\n%s", out)
	}

	data, err := tierSweep(c) // memoized: same sweep the table rendered
	if err != nil {
		t.Fatalf("tierSweep: %v", err)
	}
	base := data.baseline
	baseDollars := tierDollars(base.Mem.Pages, base.Mem.Pages)
	better := false
	for _, p := range data.points {
		qpd := tierQPSRel(p.m.AMATNS, base.AMATNS) * baseDollars / tierDollars(base.Mem.Pages, p.m.Mem.NearPages)
		if qpd > 1 {
			better = true
			break
		}
	}
	if !better {
		t.Fatal("no tiered point beats the all-near baseline on QPS per memory dollar")
	}
}

// TestTierMetricsPublished checks figT1 publishes its per-point gauges into
// an attached -metrics registry.
func TestTierMetricsPublished(t *testing.T) {
	opts := Fast()
	opts.Metrics = obs.NewRegistry()
	c := NewContext(opts)
	if _, err := mustByID(t, "figT1").Run(c); err != nil {
		t.Fatalf("figT1: %v", err)
	}
	var b strings.Builder
	if err := opts.Metrics.Snapshot().WriteJSON(&b); err != nil {
		t.Fatalf("export: %v", err)
	}
	for _, name := range []string{
		"tier_baseline_amat_ns", "tier_amat_ns", "tier_far_shard_page_frac",
		"tier_qps_per_mem_dollar", "tier_migration_gbs",
	} {
		if !strings.Contains(b.String(), name) {
			t.Fatalf("metrics export missing %s:\n%s", name, b.String())
		}
	}
}
