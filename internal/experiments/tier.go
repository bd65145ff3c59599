package experiments

import (
	"fmt"

	"searchmem/internal/mem"
	"searchmem/internal/model"
	"searchmem/internal/obs"
	"searchmem/internal/trace"
	"searchmem/internal/workload"
)

// This file extends the paper's hierarchy question below the eDRAM L4: with
// the shard too large for any cache, which of its bytes deserve near (DDR)
// versus far (CXL-attached) memory? The tier sweeps drive the internal/mem
// tiered-memory model — a DRAM bank/row-buffer near tier plus a
// page-granular far tier with epoch-based placement — behind the rebalanced
// L3+L4 hierarchy of §IV, exactly the way Figures 13/14 sweep L4 geometry:
// all configurations ride the single-pass MeasureMulti kernel over the
// shared sweep recording, sharded across the parallel engine with
// byte-identical output.

func init() {
	register(Experiment{
		ID:       "figT1",
		Title:    "Tiered memory: near:far capacity split x placement policy",
		PaperRef: "extension (Mahar et al., PAPERS.md)",
		Run:      runFigT1,
	})
	register(Experiment{
		ID:       "figT2",
		Title:    "Tiered memory: placement-epoch sensitivity at a fixed split",
		PaperRef: "extension (Mahar et al., PAPERS.md)",
		Run:      runFigT2,
	})
}

// tierFracs is the default near:far capacity grid (fraction of the touched
// page population provisioned near).
var tierFracs = []float64{0.5, 0.25, 0.125}

// tierPolicies is the default policy grid.
var tierPolicies = []mem.PagePolicy{mem.PolicyStatic, mem.PolicyLRUEpoch, mem.PolicyFreqThreshold}

// tierPoint is one measured sweep configuration.
type tierPoint struct {
	nearFrac float64
	policy   mem.PagePolicy
	m        workload.Metrics
}

// tierSweepData is the memoized outcome shared by figT1, figT2, and the
// acceptance tests.
type tierSweepData struct {
	baseline workload.Metrics // all-near: DRAM model, no far tier
	epochLen int64
	points   []tierPoint
}

// tierSweep measures the all-near baseline, derives the near-tier page
// budgets from its touched-page population, and sweeps the capacity-split x
// policy grid. Memoized per context; both phases ride measureMultiSharded.
func tierSweep(c *Context) (*tierSweepData, error) {
	v := c.curve(curveKey{kind: "tiersweep"}, func() any {
		o := c.Opts

		// Phase 1: the all-near baseline. Its page census sizes the splits and
		// its traffic volume sizes the placement epoch.
		base := tierBase(c)
		base.Mem = &mem.Config{}
		baseline := measureMultiSharded(c, c.Sweep(), []workload.MeasureConfig{base})[0]
		if baseline.Mem == nil || baseline.Mem.Pages == 0 {
			return fmt.Errorf("tier sweep: baseline measured no touched pages")
		}
		totalPages := baseline.Mem.Pages
		// Several placement epochs per measured run, with a floor so tiny
		// -short runs still cross at least one boundary.
		epochLen := max((baseline.Mem.Reads+baseline.Mem.Writes)/8, 256)
		o.logf("figT1: baseline pages %d, AMAT %.1f ns, epoch %d", totalPages, baseline.AMATNS, epochLen)

		// Phase 2: the grid. All configs share the replay keys with the
		// baseline, so the recording is already pinned.
		var mcs []workload.MeasureConfig
		var pts []tierPoint
		for _, frac := range tierFracs {
			nearPages := int64(float64(totalPages) * frac)
			if nearPages < 1 {
				nearPages = 1
			}
			for _, pol := range tierPolicies {
				mc := tierBase(c)
				mc.Mem = &mem.Config{Far: &mem.FarConfig{
					NearPages: nearPages,
					Policy:    pol,
					EpochLen:  epochLen,
				}}
				mcs = append(mcs, mc)
				pts = append(pts, tierPoint{nearFrac: frac, policy: pol})
			}
		}
		for i, m := range measureMultiSharded(c, c.Sweep(), mcs) {
			pts[i].m = m
			o.logf("figT1: near %.3f %s: AMAT %.1f ns, far-shard-pages %.0f%%",
				pts[i].nearFrac, pts[i].policy, m.AMATNS, 100*m.Mem.FarPageFrac(trace.Shard))
		}
		return &tierSweepData{baseline: baseline, epochLen: epochLen, points: pts}
	})
	if err, failed := v.(error); failed {
		return nil, err
	}
	return v.(*tierSweepData), nil
}

// tierDollars prices a provisioned split at paper scale: the simulated page
// population scaled back to paper size, near pages at DDR cost and the
// rest at far-tier cost.
func tierDollars(totalPages, nearPages int64) float64 {
	return mem.PageDollars(workload.PaperUnits(nearPages), workload.PaperUnits(totalPages-nearPages))
}

// tierQPSRel converts AMAT to relative QPS via Equation 1 (cores and SMT
// are constant across the sweep, so IPC ratio is QPS ratio). Its AMATs are
// the simulated hierarchy's, far tier included, at one core count and one
// L3: the measured-AMAT-to-IPC relation Eq. 1 fits (Figure 8b), not the §IV
// perf model's, which composes a post-L2 AMAT from a hit curve and fixed
// L3 and memory latencies.
func tierQPSRel(amatNS, baseAMATNS float64) float64 {
	return model.IPCFromAMAT(amatNS) / model.IPCFromAMAT(baseAMATNS)
}

func runFigT1(c *Context) (Result, error) {
	data, err := tierSweep(c)
	if err != nil {
		return nil, err
	}
	base := data.baseline
	baseDollars := tierDollars(base.Mem.Pages, base.Mem.Pages)

	t := &Table{
		Title: "Figure T1: near:far capacity split x placement policy (tiered memory behind the 512 MiB L4)",
		Headers: []string{"near", "policy", "AMAT ns", "dAMAT", "row-hit",
			"far shard pages", "far reads", "mig GB/s", "QPS/mem$"},
		Note: fmt.Sprintf("all-near baseline AMAT %s ns; QPS via Eq. 1; memory dollars at %s/GiB near, %s/GiB far (paper-scale capacity); epoch %d transactions",
			trimFloat(base.AMATNS), trimFloat(mem.Dollars(1<<30, 0)), trimFloat(mem.Dollars(0, 1<<30)), data.epochLen),
	}
	reg := c.Opts.Metrics
	baseRowHit := base.Mem.RowHitRate()
	if reg != nil {
		reg.Gauge("tier_baseline_amat_ns").Set(base.AMATNS)
		reg.Gauge("tier_baseline_row_hit_rate").Set(baseRowHit)
	}
	t.AddRow("100%", "all-near", trimFloat(base.AMATNS), pct(0), pct(baseRowHit),
		pct(0), pct(0), "0", trimFloat(1.0))
	for _, p := range data.points {
		st := p.m.Mem
		rowHit, farShard, farRead, migGBs := st.RowHitRate(), st.FarPageFrac(trace.Shard), st.FarReadFrac(), st.MigrationGBs()
		rel := tierQPSRel(p.m.AMATNS, base.AMATNS)
		dollars := tierDollars(base.Mem.Pages, st.NearPages)
		qpd := rel * baseDollars / dollars
		t.AddRow(
			pct(p.nearFrac),
			p.policy.String(),
			trimFloat(p.m.AMATNS),
			pct(p.m.AMATNS/base.AMATNS-1),
			pct(rowHit),
			pct(farShard),
			pct(farRead),
			trimFloat(migGBs),
			trimFloat(qpd),
		)
		if reg != nil {
			ls := []obs.Label{obs.L("near", pct(p.nearFrac)), obs.L("policy", p.policy.String())}
			reg.Gauge("tier_amat_ns", ls...).Set(p.m.AMATNS)
			reg.Gauge("tier_row_hit_rate", ls...).Set(rowHit)
			reg.Gauge("tier_far_shard_page_frac", ls...).Set(farShard)
			reg.Gauge("tier_far_read_frac", ls...).Set(farRead)
			reg.Gauge("tier_migration_gbs", ls...).Set(migGBs)
			reg.Gauge("tier_qps_per_mem_dollar", ls...).Set(qpd)
		}
	}
	return t, nil
}

func runFigT2(c *Context) (Result, error) {
	data, err := tierSweep(c)
	if err != nil {
		return nil, err
	}
	// Dynamic policies only: static never migrates, so epoch length is
	// moot for it.
	dyn := []mem.PagePolicy{mem.PolicyLRUEpoch, mem.PolicyFreqThreshold}
	base := data.baseline
	const frac = 0.25
	nearPages := int64(float64(base.Mem.Pages) * frac)
	if nearPages < 1 {
		nearPages = 1
	}

	epochs := []int64{data.epochLen / 4, data.epochLen, data.epochLen * 4}
	if epochs[0] < 64 {
		epochs[0] = 64
	}
	var mcs []workload.MeasureConfig
	type cell struct {
		pol   mem.PagePolicy
		epoch int64
	}
	var cells []cell
	for _, pol := range dyn {
		for _, ep := range epochs {
			mc := tierBase(c)
			mc.Mem = &mem.Config{Far: &mem.FarConfig{
				NearPages: nearPages,
				Policy:    pol,
				EpochLen:  ep,
			}}
			mcs = append(mcs, mc)
			cells = append(cells, cell{pol: pol, epoch: ep})
		}
	}
	t := &Table{
		Title: fmt.Sprintf("Figure T2: placement-epoch sensitivity at a %s near split", pct(frac)),
		Headers: []string{"policy", "epoch", "AMAT ns", "dAMAT", "migrations",
			"mig GB/s", "far reads"},
		Note: fmt.Sprintf("all-near baseline AMAT %s ns; short epochs react faster but migrate more", trimFloat(base.AMATNS)),
	}
	for i, m := range measureMultiSharded(c, c.Sweep(), mcs) {
		st := m.Mem
		t.AddRow(
			cells[i].pol.String(),
			fmt.Sprintf("%d", cells[i].epoch),
			trimFloat(m.AMATNS),
			pct(m.AMATNS/base.AMATNS-1),
			fmt.Sprintf("%d", st.Migrations),
			trimFloat(st.MigrationGBs()),
			pct(st.FarReadFrac()),
		)
	}
	return t, nil
}
