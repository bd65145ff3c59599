package workload

import (
	"fmt"
	"math"

	"searchmem/internal/cache"
	"searchmem/internal/cpu"
	"searchmem/internal/mem"
	"searchmem/internal/trace"
)

// PreRecord records the replay keys a Measure or MeasureMulti call with mc
// will request — the warmup run first, then the measured run — without
// replaying them. Parallel sweeps call this serially before fanning out, so
// recording order (the only stateful part of a Replayer) is pinned to the
// serial engine's regardless of worker scheduling.
func PreRecord(r *Replayer, mc MeasureConfig) {
	mc.normalize()
	warm, main := measureKeys(&mc)
	if warm.budget > 0 {
		r.record(warm)
	}
	r.record(main)
}

// measured is one configuration's below-L3 machine during a measurement:
// its tail (L4, memory counters, level predictor), its memory model, and —
// with an AccessObserver — the scratch its resolved levels land in.
type measured struct {
	tail   *cache.Tail
	sys    *mem.System
	levels []cache.HitLevel
}

// newMeasured builds configuration mc's tail and memory model.
func newMeasured(mc *MeasureConfig) measured {
	m := measured{tail: cache.NewTail(hierarchyConfig(*mc))}
	if mc.Mem != nil {
		m.sys = mem.NewSystem(*mc.Mem)
		m.tail.SetMemSink(m.sys)
	}
	if mc.AccessObserver != nil {
		m.levels = make([]cache.HitLevel, 0, trace.DefaultBatchSize)
	}
	return m
}

// reset restarts the counters at the end of warm-up; contents, residency,
// row state and the predictor's table stay warm.
func (m *measured) reset() {
	m.tail.ResetStats()
	if m.sys != nil {
		m.sys.ResetStats()
	}
}

// group is one upper and the configurations whose tails drain its port.
type group struct {
	up      *cache.Hierarchy
	members []int
	// engine is a Prefetchers config's cpu.Engine: it installs prefetches
	// between accesses, so that config is a group of its own whose one tail
	// is attached to the upper and drained on every call.
	engine *cpu.Engine
	// levels is the upper's per-access levels scratch when a member observes.
	levels []cache.HitLevel
	// rec, when non-nil, records the port into a Stream; warm holds the
	// warm-up run's part once the measured run starts.
	rec  *cache.StreamWriter
	warm *cache.Stream

	// splittable is set when the group may run split by set (split.go): its
	// upper is cache.Partitionable, it has no engine and keys no L1 misses.
	// A split group's up is partition 0 and twin partition 1; lv and twinLv
	// are their levels for the current window (twinLv is also twin's
	// scratch), and port is the two ports merged.
	splittable bool
	twin       *cache.Hierarchy
	lv, twinLv []cache.HitLevel
	port       cache.Port
}

// newGroup builds the group of members whose upper is cfg: an upper, and
// the levels scratch when some member observes.
func newGroup(cfgs []MeasureConfig, members []int, cfg cache.HierarchyConfig, l1Misses bool) group {
	g := group{up: cache.NewUpper(cfg, l1Misses), members: members, splittable: !l1Misses && cache.Partitionable(cfg)}
	for _, i := range members {
		if cfgs[i].AccessObserver != nil && g.levels == nil {
			g.levels = make([]cache.HitLevel, 0, trace.DefaultBatchSize)
		}
	}
	return g
}

// upperStats is the group's L1–L3 counters, summed over both partitions
// when it ran split.
func (g *group) upperStats() cache.UpperStats {
	u := g.up.UpperStats()
	if g.twin != nil {
		t := g.twin.UpperStats()
		u.Add(&t)
	}
	return u
}

// prepare copies, normalizes and validates configurations that share one run.
func prepare(mcs []MeasureConfig) []MeasureConfig {
	cfgs := make([]MeasureConfig, len(mcs))
	copy(cfgs, mcs)
	for i := range cfgs {
		mc := &cfgs[i]
		if mc.Threads <= 0 || mc.Cores <= 0 || mc.SMTWays <= 0 {
			panic("workload: Measure needs positive cores/threads/SMT")
		}
		if f := mc.WarmupFraction; !(f >= 0 && float64(mc.Budget)*f < math.MaxInt64) {
			// NaN, ±Inf or a warm-up budget past int64 would convert to an
			// arbitrary budget and silently skip the warm-up.
			panic("workload: Measure needs a finite, non-negative WarmupFraction whose warm-up budget fits an int64")
		}
		if mc.BranchObserver != nil && len(cfgs) > 1 {
			panic("workload: a BranchObserver cannot share a MeasureMulti run")
		}
		mc.normalize()
	}
	base := cfgs[0]
	for i, mc := range cfgs {
		if mc.Threads != base.Threads || mc.Budget != base.Budget ||
			mc.Seed != base.Seed || mc.WarmupFraction != base.WarmupFraction {
			panic(fmt.Sprintf("workload: MeasureMulti config %d does not share threads/budget/seed/warmup with config 0", i))
		}
	}
	return cfgs
}

// groupUppers partitions normalized configurations by their upper, in
// first-appearance order: configurations whose resolved hierarchies differ
// only in the L4 and the level predictor share one group. A Prefetchers
// configuration is always a group of its own. keys[g] is group g's upper
// and l1Misses[g] whether any of its members carries a level predictor.
func groupUppers(cfgs []MeasureConfig) (members [][]int, keys []cache.HierarchyConfig, l1Misses []bool) {
	index := make(map[cache.HierarchyConfig]int)
	for i := range cfgs {
		up := upperOf(hierarchyConfig(cfgs[i]))
		g, ok := index[up]
		if !ok || cfgs[i].Prefetchers != nil {
			g = len(members)
			members, keys, l1Misses = append(members, nil), append(keys, up), append(l1Misses, false)
			if cfgs[i].Prefetchers == nil {
				index[up] = g
			}
		}
		members[g] = append(members[g], i)
		l1Misses[g] = l1Misses[g] || cfgs[i].Predictor != nil
	}
	return members, keys, l1Misses
}

// MeasureMulti measures many hierarchy configurations against one workload
// run in a single pass — the one measured loop, which Measure calls with one
// config. Configurations are grouped by their upper (the resolved hierarchy
// minus its L4 and level predictor): each group runs its L1–L3 once per
// decoded batch, and each member's tail — its L4, memory model, memory
// counters and level predictor — drains the port that batch left. Nothing
// below the L3 feeds back up, so a member sees exactly what a hierarchy of
// its own would (TestMeasureMultiMatchesMeasure, TestTailsMatchAlone), and
// every member of a group reports identical L1–L3 counters. The trace
// decode, the sink dispatch and each group's L1–L3 are shared; an
// experiments.Context goes further and keeps a group's port stream, so
// later sweeps over the same upper replay tails only (Stream).
//
// All configs must agree on Threads, Budget, Seed and WarmupFraction (they
// share the run), and a BranchObserver needs the run to itself;
// MeasureMulti panics otherwise. A config with Prefetchers gets its own
// upper and cpu.Engine and takes its accesses one at a time; one with an
// AccessObserver is fed the levels its tail resolves for each
// measured-phase window. The runner must reproduce the same event streams
// for the same (threads, budget, seed) — in practice, wrap it in a Replayer.
//
// Branch predictors are deterministic functions of the branch stream, so
// configs sharing a (Cores, SMTWays) shape share one
// predictor pass (see branchTally): each distinct shape observes the stream
// once, however many configurations use it — and on a Replayer, once for
// every call that replays the same recordings.
func MeasureMulti(r Runner, mcs []MeasureConfig) []Metrics {
	if len(mcs) == 0 {
		return nil
	}
	cfgs := prepare(mcs)
	ms := make([]measured, len(cfgs))
	for i := range cfgs {
		ms[i] = newMeasured(&cfgs[i])
	}
	members, keys, l1Misses := groupUppers(cfgs)
	groups := make([]group, len(members))
	for gi := range groups {
		g := &groups[gi]
		if mc := &cfgs[members[gi][0]]; mc.Prefetchers != nil {
			*g = group{up: cache.NewUpper(hierarchyConfig(*mc), l1Misses[gi]), members: members[gi]}
			g.up.Tail = ms[g.members[0]].tail
			g.engine = cpu.NewEngine(g.up, mc.Cores, mc.Prefetchers)
			continue
		}
		*g = newGroup(cfgs, members[gi], keys[gi], l1Misses[gi])
	}
	bt := newBranchTally(r, cfgs, cfgs[0].BranchObserver)
	run := runGroups(r, cfgs, ms, groups, bt)
	out := make([]Metrics, len(cfgs))
	for gi := range groups {
		up := groups[gi].upperStats()
		for _, i := range groups[gi].members {
			out[i] = reduce(r, cfgs[i], up, &ms[i], bt.mispredicts(i), run)
		}
	}
	return out
}

// runGroups is the loop itself: it replays the warm-up run through every
// group, resets every counter (contents stay warm), replays the measured
// run, and returns the measured run's workload counters. A group with a
// StreamWriter splits its stream at the reset. At the reset, groups may be
// split by set for the measured run (split.go); a split group's partitions
// run each window on two goroutines before its tails drain the merged port.
func runGroups(r Runner, cfgs []MeasureConfig, ms []measured, groups []group, bt *branchTally) Stats {
	runsInFlight.Add(1)
	defer runsInFlight.Add(-1)
	var helper *splitHelper
	defer func() { helper.stop() }()
	measuring := false // observers only see the post-warmup phase
	accessBatch := func(b []trace.Access) {
		if helper != nil {
			helper.post(b)
			for _, g := range helper.groups {
				g.runSplit(b)
			}
			helper.wait()
		}
		for gi := range groups {
			g := &groups[gi]
			if g.engine != nil {
				observe := cfgs[g.members[0]].AccessObserver
				for _, a := range b {
					lvl := g.engine.Access(a)
					if measuring && observe != nil {
						observe(a, lvl)
					}
				}
				continue
			}
			var lv []cache.HitLevel
			var port *cache.Port
			if g.twin != nil {
				port, lv = g.mergeSplit()
			} else {
				if measuring {
					lv = g.levels[:0]
				}
				lv = g.up.AccessBatch(b, lv)
				port = g.up.Port()
			}
			for _, i := range g.members {
				m := &ms[i]
				if observe := cfgs[i].AccessObserver; measuring && observe != nil {
					m.levels = append(m.levels[:0], lv...)
					m.tail.Drain(port, m.levels)
					for j, a := range b {
						observe(a, m.levels[j])
					}
					continue
				}
				m.tail.Drain(port, nil)
			}
			if g.rec != nil {
				g.rec.Add(port)
			}
		}
	}
	sinks := Sinks{
		// Batching-aware runners (the Replayer) deliver zero-copy windows;
		// anything else delivers one access at a time, as a window of one.
		AccessBatch: accessBatch,
		Access: func(a trace.Access) {
			one := [1]trace.Access{a}
			accessBatch(one[:])
		},
		Branch: bt.sink(),
	}

	base := cfgs[0]
	warm := make([]cache.UpperStats, len(groups))
	if bt.warm.budget > 0 {
		r.Run(base.Threads, bt.warm.budget, bt.warm.seed, sinks)
		for gi := range groups {
			g := &groups[gi]
			warm[gi] = g.up.UpperStats()
			g.up.ResetStats()
			if g.rec != nil {
				g.warm = g.rec.Finish()
			}
		}
		for i := range ms {
			ms[i].reset()
		}
	}
	helper = splitGroups(r, groups, warm)
	measuredRuns.Add(1)
	if helper != nil {
		splitRuns.Add(1)
	}
	measuring = true
	bt.beginMeasured()
	return r.Run(base.Threads, base.Budget, base.Seed, sinks)
}
