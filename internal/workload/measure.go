package workload

import (
	"fmt"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/mem"
	"searchmem/internal/model"
	"searchmem/internal/platform"
	"searchmem/internal/trace"
)

// The L4's timing is the paper's baseline design (model.BaselineL4): a
// 40 ns hit, looked up in parallel with memory, so a miss adds nothing.
const (
	l4HitNS         float64 = 40
	l4MissPenaltyNS float64 = 0
)

// predictorBits sizes the per-core gshare predictor.
const predictorBits uint = 14

// MeasureConfig describes one measurement run: a workload on a platform
// hierarchy with the paper's instrumentation attached (functional cache
// simulation + branch predictors + the calibrated core model).
type MeasureConfig struct {
	// Platform supplies cache shapes, latencies, and the core model.
	Platform platform.Platform
	// Cores and SMTWays shape the simulated hierarchy; Threads is the
	// number of workload threads run on it.
	Cores, SMTWays, Threads int
	// L3Ways, when non-zero, partitions the L3 CAT-style.
	L3Ways int
	// SplitL2 splits each core's unified L2 into I and D halves (§V).
	SplitL2 bool
	// L3Size, when non-zero, overrides the L3 capacity.
	L3Size int64
	// L4Size, when non-zero, adds a memory-side victim L4 of this capacity
	// (direct-mapped unless L4Assoc overrides).
	L4Size int64
	// L4Assoc is the L4 associativity (0 with L4Size set = direct-mapped
	// per the paper's design; use -1 for fully associative).
	L4Assoc int
	// Budget is the measured instruction budget; a quarter as much again
	// is run first as unrecorded warmup.
	Budget int64
	// Seed varies the input stream.
	Seed uint64
	// Prefetchers, when non-nil, is invoked per core to attach hardware
	// prefetchers.
	Prefetchers func() []cpu.Prefetcher
	// WarmupFraction scales the warmup budget. The zero value selects the
	// default of 0.25; positive values are used as given (values above 1
	// warm with more instructions than the measured budget, e.g. the
	// calibration runs' 2.0); a fraction of the budget under one instruction
	// runs no warm-up. A negative value panics.
	WarmupFraction float64
	// AccessObserver, when non-nil, sees every measured-phase access along
	// with the hierarchy level that served it (warmup is not observed, to
	// match the statistics reset). The obs sampling profiler attaches here.
	AccessObserver func(a trace.Access, lvl cache.HitLevel)
	// BranchObserver, when non-nil, sees every measured-phase branch and
	// whether it mispredicted, in stream order. It is fed from the
	// recording's branch log, per configuration, after the measured run.
	BranchObserver func(thread uint8, mispredict bool)
	// L2Policy, L3Policy, and L4Policy select the replacement policy per
	// level (the zero value, cache.LRU, keeps the platform default; the
	// L1s always keep it). Stochastic policies (Random, BRRIP, DRRIP) need
	// a non-zero per-cache seed; hierarchyConfig derives one
	// deterministically from Seed and a per-level salt, so repeat runs stay
	// byte-identical.
	L2Policy, L3Policy, L4Policy cache.Policy
	// DeadBlock enables dead-block-aware insertion on every level running
	// an RRIP-family policy (it is a no-op for LRU/FIFO/Random levels).
	DeadBlock bool
	// Predictor, when non-nil, attaches a cache-level predictor to the
	// hierarchy. The config is copied; a zero Predictor.Seed is defaulted
	// from Seed so prediction tables hash deterministically per run.
	Predictor *cache.PredictorConfig
	// Mem, when non-nil, attaches a tiered main-memory model (internal/mem)
	// below the hierarchy: post-L4 traffic runs through its DRAM bank/row-
	// buffer near tier and optional far tier, Metrics.Mem carries its
	// snapshot, and the AMAT model uses its effective read latency in place
	// of Platform.MemLatencyNS. Each measurement builds its own mem.System
	// from this config (the config itself is never mutated).
	Mem *mem.Config
}

// Metrics is the measured outcome, aligned with Table I's rows and the
// inputs of §III-D's models.
type Metrics struct {
	// IPC is the modeled per-core, per-thread IPC.
	IPC float64
	// Breakdown is the Top-Down slot accounting (Figure 3).
	Breakdown cpu.Breakdown
	// BranchMPKI is mispredicted branches per kilo-instruction.
	BranchMPKI float64
	// L2InstrMPKI and L3LoadMPKI are the headline Table I metrics.
	L2InstrMPKI, L3LoadMPKI float64
	// Remaining per-level rates.
	L1IMPKI, L1DMPKI, L2DataMPKI, L3InstrMPKI float64
	// L3HitRate and L4HitRate are demand hit rates.
	L3HitRate, L4HitRate float64
	// AMATNS is the modeled post-L2 average access time.
	AMATNS float64
	// DRAMPerKI is main-memory transactions per kilo-instruction.
	DRAMPerKI float64
	// Level stats for per-segment analysis (Figure 6a).
	L1, L2, L3, L4 cache.AccessStats
	// MemReads and MemWrites are raw DRAM transaction counts.
	MemReads, MemWrites int64
	// Pred carries the cache-level predictor's counters when
	// MeasureConfig.Predictor was set (all zero otherwise).
	Pred cache.PredictorStats
	// Instructions measured; Run carries the workload-level counters.
	Instructions int64
	Run          Stats
	// Mem, when MeasureConfig.Mem was set, is the tiered memory system's
	// measured-phase snapshot (row-buffer behaviour, tier residency,
	// migration accounting).
	Mem *mem.Stats
}

// normalize resolves WarmupFraction in place.
func (mc *MeasureConfig) normalize() {
	if mc.WarmupFraction == 0 {
		mc.WarmupFraction = 0.25 // unset: the default warmup
	}
}

// hierarchyConfig resolves the hierarchy mc describes — platform shape,
// L3/L4 overrides, per-level policies with their seed salts, the optional
// level predictor.
func hierarchyConfig(mc MeasureConfig) (hcfg cache.HierarchyConfig) {
	if mc.L3Size > 0 {
		hcfg = mc.Platform.HierarchyWithL3Size(mc.Cores, mc.SMTWays, mc.L3Size)
	} else {
		hcfg = mc.Platform.Hierarchy(mc.Cores, mc.SMTWays, mc.L3Ways)
	}
	hcfg.SplitL2 = mc.SplitL2
	if mc.L4Size > 0 {
		assoc := mc.L4Assoc
		if assoc == 0 {
			assoc = 1 // the paper's direct-mapped design
		}
		if assoc < 0 {
			assoc = 0 // fully associative sensitivity configuration
		}
		hcfg.L4 = &cache.Config{
			Name:      "L4",
			Size:      mc.L4Size,
			BlockSize: hcfg.L3.BlockSize,
			Assoc:     assoc,
		}
	}
	// Replacement-policy overrides. Stochastic policies draw from a
	// per-cache RNG; the seed is derived from the run seed and a per-level
	// salt so every level streams independently yet repeat runs match.
	applyPolicy := func(c *cache.Config, p cache.Policy, salt uint64) {
		if p == cache.LRU {
			return // zero value: keep the platform default
		}
		c.Policy = p
		if p.Stochastic() && c.Seed == 0 {
			c.Seed = (mc.Seed | 1) * salt
		}
		if mc.DeadBlock && p.RRIP() {
			c.DeadBlock = true
		}
	}
	applyPolicy(&hcfg.L2, mc.L2Policy, 0x94d049bb133111eb)
	applyPolicy(&hcfg.L3, mc.L3Policy, 0xd6e8feb86659fd93)
	if hcfg.L4 != nil {
		applyPolicy(hcfg.L4, mc.L4Policy, 0xa0761d6478bd642f)
	}
	if mc.Predictor != nil {
		pc := *mc.Predictor
		if pc.Seed == 0 {
			pc.Seed = mc.Seed | 1
		}
		hcfg.Predictor = &pc
	}
	return hcfg
}

// upperOf is the part of a resolved hierarchy an upper runs: everything but
// the L4 and the level predictor, which belong to its tails. Configurations
// with equal uppers see identical L1–L3 behaviour and share one upper.
func upperOf(hcfg cache.HierarchyConfig) cache.HierarchyConfig {
	hcfg.L4, hcfg.Predictor = nil, nil
	return hcfg
}

// Measure runs the workload against the configured hierarchy and reduces
// the result through the calibrated core model: MeasureMulti of one config.
func Measure(r Runner, mc MeasureConfig) Metrics {
	return MeasureMulti(r, []MeasureConfig{mc})[0]
}

// reduce turns one configuration's counters — its upper's, overlaid by its
// tail, and its tail's own — and its mispredictions into Metrics via the
// core model.
func reduce(r *Replayer, mc MeasureConfig, up cache.UpperStats, mt *measured, run Stats) Metrics {
	mispred := r.mispredicts(&mc)
	u := mt.tail.Overlay(up)
	m := Metrics{
		Instructions: run.Instructions,
		Run:          run,
		L2:           u.L2,
		L3:           u.L3,
		L4:           mt.tail.L4Stats(),
		MemReads:     mt.tail.MemReads,
		MemWrites:    mt.tail.MemWrites,
		Pred:         mt.tail.PredictorStats(),
	}
	m.L1 = u.L1I
	m.L1.Add(&u.L1D)
	instr := run.Instructions
	if instr == 0 {
		panic(fmt.Sprintf("workload %s: measured zero instructions", r.Name()))
	}
	ki := float64(instr) / 1000

	m.BranchMPKI = float64(mispred) / ki

	l1i, l1d := u.L1I, u.L1D
	m.L1IMPKI = float64(l1i.TotalMisses()) / ki
	m.L1DMPKI = float64(l1d.TotalMisses()) / ki
	m.L2InstrMPKI = float64(m.L2.KindMisses(trace.Fetch)) / ki
	m.L2DataMPKI = float64(m.L2.KindMisses(trace.Read)+m.L2.KindMisses(trace.Write)) / ki
	m.L3LoadMPKI = float64(m.L3.KindMisses(trace.Read)+m.L3.KindMisses(trace.Write)) / ki
	m.L3InstrMPKI = float64(m.L3.KindMisses(trace.Fetch)) / ki
	m.L3HitRate = m.L3.HitRate()
	hasL4 := mt.tail.HasL4()
	if hasL4 {
		m.L4HitRate = m.L4.HitRate()
	}
	m.DRAMPerKI = float64(mt.tail.DRAMAccesses()) / ki

	plat := mc.Platform
	tMEM := plat.MemLatencyNS
	if mt.sys != nil {
		// The tiered model's measured effective read latency (queueing,
		// row-buffer behaviour, far-tier accesses, amortized migrations)
		// replaces the platform's flat memory-latency constant.
		snap := mt.sys.Snapshot()
		m.Mem = &snap
		tMEM = snap.EffectiveReadNS(tMEM)
	}
	if hasL4 {
		m.AMATNS = model.AMATWithL4(m.L3HitRate, m.L4HitRate, plat.L3LatencyNS, l4HitNS, tMEM, l4MissPenaltyNS)
	} else {
		m.AMATNS = model.AMATL3(m.L3HitRate, plat.L3LatencyNS, tMEM)
	}

	core := plat.Core
	if ov := r.MemOverlap(); ov > 0 {
		core.MemOverlap = ov
	}
	rates := cpu.EventRates{
		BranchMispredicts: float64(mispred) / float64(instr),
		L1IMisses:         float64(l1i.TotalMisses()) / float64(instr),
		L2IMisses:         float64(m.L2.KindMisses(trace.Fetch)) / float64(instr),
		L1DMisses:         float64(l1d.TotalMisses()) / float64(instr),
		L2DMisses:         float64(m.L2.KindMisses(trace.Read)+m.L2.KindMisses(trace.Write)) / float64(instr),
		L3IMisses:         float64(m.L3.KindMisses(trace.Fetch)) / float64(instr),
		L3AMATNS:          m.AMATNS,
	}
	m.Breakdown, m.IPC = core.Evaluate(rates)
	return m
}
