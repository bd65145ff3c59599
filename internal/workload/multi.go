package workload

import (
	"fmt"

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

// measured is one configuration's simulated machine during a MeasureMulti.
type measured struct {
	h            *cache.Hierarchy
	sys          *mem.System
	engine       *cpu.Engine // non-nil when the config sets Prefetchers
	l4Hit, l4Pen float64
}

// MeasureMulti measures many hierarchy configurations against one workload
// run in a single pass — the one measured loop, which Measure calls with one
// config. The access stream is decoded once per batch and each batch
// replayed through every hierarchy in turn; each hierarchy is an
// independent state machine that sees the same access sequence, so sharing
// the replay perturbs none of them (TestMeasureMultiMatchesMeasure) and only
// the trace decode and sink dispatch are shared. Capacity sweeps over dozens
// of points are memory-bandwidth-bound on the recorded trace, so sharing the
// decode is where the wall-clock goes.
//
// All configs must agree on Threads, Budget, Seed and WarmupFraction (they
// share the run), and a BranchObserver needs the run to itself;
// MeasureMulti panics otherwise. A config with Prefetchers gets its own
// cpu.Engine and takes its accesses one at a time; one with an
// AccessObserver is fed the levels Hierarchy.AccessBatch reports for each
// measured-phase window; one with neither costs one AccessBatch call per
// window. The runner must reproduce the same event streams for the same
// (threads, budget, seed) — in practice, wrap it in a Replayer.
//
// Branch predictors are deterministic functions of the branch stream, so
// configs sharing a (PredictorBits, Cores, SMTWays) shape share one
// predictor pass (see branchTally): each distinct shape observes the stream
// once, however many configurations use it — and on a Replayer, once for
// every call that replays the same recordings.
func MeasureMulti(r Runner, mcs []MeasureConfig) []Metrics {
	if len(mcs) == 0 {
		return nil
	}
	cfgs := make([]MeasureConfig, len(mcs))
	copy(cfgs, mcs)
	ms := make([]measured, len(cfgs))
	var levels []cache.HitLevel // AccessBatch scratch, only with an observer
	for i := range cfgs {
		mc := &cfgs[i]
		if mc.Threads <= 0 || mc.Cores <= 0 || mc.SMTWays <= 0 {
			panic("workload: Measure needs positive cores/threads/SMT")
		}
		if mc.BranchObserver != nil && len(cfgs) > 1 {
			panic("workload: a BranchObserver cannot share a MeasureMulti run")
		}
		mc.normalize()
		m := &ms[i]
		m.h, m.sys, m.l4Hit, m.l4Pen = buildHierarchy(*mc)
		if mc.Prefetchers != nil {
			m.engine = cpu.NewEngine(m.h, mc.Cores, mc.Prefetchers)
		}
		if mc.AccessObserver != nil && levels == nil {
			levels = make([]cache.HitLevel, 0, trace.DefaultBatchSize)
		}
	}
	base := cfgs[0]
	for i, mc := range cfgs {
		if mc.Threads != base.Threads || mc.Budget != base.Budget ||
			mc.Seed != base.Seed || mc.WarmupFraction != base.WarmupFraction {
			panic(fmt.Sprintf("workload: MeasureMulti config %d does not share threads/budget/seed/warmup with config 0", i))
		}
	}

	bt := newBranchTally(r, cfgs, base.BranchObserver)

	measuring := false // observers only see the post-warmup phase
	accessBatch := func(b []trace.Access) {
		for i := range ms {
			m := &ms[i]
			var observe func(trace.Access, cache.HitLevel)
			if measuring {
				observe = cfgs[i].AccessObserver
			}
			switch {
			case m.engine != nil:
				for _, a := range b {
					lvl := m.engine.Access(a)
					if observe != nil {
						observe(a, lvl)
					}
				}
			case observe != nil:
				levels = m.h.AccessBatch(b, levels[:0])
				for j, a := range b {
					observe(a, levels[j])
				}
			default:
				m.h.AccessBatch(b, nil)
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

	// Warmup once, reset every statistic, then the measured run.
	if bt.warm.budget > 0 {
		r.Run(base.Threads, bt.warm.budget, bt.warm.seed, sinks)
		for i := range ms {
			ms[i].h.ResetStats()
			if sys := ms[i].sys; sys != nil {
				sys.ResetStats() // residency and row state stay warm; counters restart
			}
		}
	}
	measuring = true
	bt.beginMeasured()
	run := r.Run(base.Threads, base.Budget, base.Seed, sinks)

	out := make([]Metrics, len(ms))
	for i, m := range ms {
		out[i] = reduce(r, cfgs[i], m.h, m.sys, bt.mispredicts(i), run, m.l4Hit, m.l4Pen)
	}
	return out
}
