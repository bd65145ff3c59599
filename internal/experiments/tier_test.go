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

// TestGaugesMatchTable: every tier_*, policy_* and pred_* gauge figT1,
// figP1 and figP2 publish is the number a cell of their table renders,
// formatted the way that cell is, and every gauge the figures promise is
// published. Each gauge is set from the local its row renders; this holds
// it there.
func TestGaugesMatchTable(t *testing.T) {
	opts := Fast()
	opts.Metrics = obs.NewRegistry()
	c := NewContext(opts)
	tables := map[string]*Table{}
	for _, f := range []struct{ prefix, id string }{{"tier", "figT1"}, {"policy", "figP1"}, {"pred", "figP2"}} {
		res, err := mustByID(t, f.id).Run(c)
		if err != nil {
			t.Fatalf("%s: %v", f.id, err)
		}
		tables[f.prefix] = res.(*Table)
	}
	gauges := opts.Metrics.Snapshot().Gauges
	var predBase float64
	for _, g := range gauges {
		if g.Name == "pred_baseline_l3_mpki" {
			predBase = g.Value
		}
	}
	// A cell is found by its row's leading cells: the gauge's label values
	// in label-key order, or row for an unlabeled gauge ("" matches any).
	// col < 0 means the table's note.
	type cell struct {
		row    []string
		col    int
		format func(float64) string
	}
	lru := []string{"", "lru"}
	cells := map[string]cell{
		"tier_baseline_amat_ns":      {[]string{"100%", "all-near"}, 2, trimFloat},
		"tier_baseline_row_hit_rate": {[]string{"100%", "all-near"}, 4, pct},
		"tier_amat_ns":               {nil, 2, trimFloat},
		"tier_row_hit_rate":          {nil, 4, pct},
		"tier_far_shard_page_frac":   {nil, 5, pct},
		"tier_far_read_frac":         {nil, 6, pct},
		"tier_migration_gbs":         {nil, 7, trimFloat},
		"tier_qps_per_mem_dollar":    {nil, 8, trimFloat},
		"policy_baseline_amat_ns":    {lru, 4, trimFloat},
		"policy_baseline_ipc":        {lru, 5, trimFloat},
		"policy_mpki":                {nil, 2, trimFloat},
		"policy_amat_ns":             {nil, 4, trimFloat},
		"policy_ipc":                 {nil, 5, trimFloat},
		"pred_baseline_l3_mpki":      {nil, -1, func(v float64) string { return "L3 MPKI " + trimFloat(v) + "," }},
		"pred_coverage":              {nil, 3, pct},
		"pred_hit_rate":              {nil, 4, pct},
		"pred_skip_rate":             {nil, 6, pct},
		"pred_l3_mpki":               {nil, 7, func(v float64) string { return pct(v/predBase - 1) }},
	}
	seen := map[string]bool{}
	for _, g := range gauges {
		prefix, _, _ := strings.Cut(g.Name, "_")
		tab := tables[prefix]
		if tab == nil {
			continue
		}
		spec, ok := cells[g.Name]
		if !ok {
			t.Errorf("gauge %s has no table cell to match", g.Name)
			continue
		}
		seen[g.Name] = true
		want := spec.format(g.Value)
		if spec.col < 0 {
			if !strings.Contains(tab.Note, want) {
				t.Errorf("%s = %v: note %q does not render %q", g.Name, g.Value, tab.Note, want)
			}
			continue
		}
		key := spec.row
		if key == nil {
			for _, l := range g.Labels {
				key = append(key, l.Value)
			}
		}
		matched := 0
		for _, row := range tab.Rows {
			if !rowHasPrefix(row, key) {
				continue
			}
			matched++
			if row[spec.col] != want {
				t.Errorf("%s%v = %v renders %q, table row %v has %q", g.Name, key, g.Value, want, row, row[spec.col])
			}
		}
		if matched == 0 {
			t.Errorf("%s%v: no table row", g.Name, key)
		}
	}
	for name := range cells {
		if !seen[name] {
			t.Errorf("gauge %s not published", name)
		}
	}
}

// rowHasPrefix reports whether row starts with key's cells ("" matches any).
func rowHasPrefix(row, key []string) bool {
	if len(row) < len(key) {
		return false
	}
	for i, k := range key {
		if k != "" && row[i] != k {
			return false
		}
	}
	return true
}
