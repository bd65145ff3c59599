package workload

import (
	"fmt"

	"searchmem/internal/cache"
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

// MeasureMulti measures many hierarchy configurations against one workload
// run in a single pass: the access stream is decoded once per batch and each
// batch replayed through every hierarchy in turn, instead of one decode per
// configuration. Results are identical to calling Measure per config (each
// hierarchy is an independent state machine that sees the same access
// sequence — see DESIGN.md §11); only the trace decode and sink dispatch
// are shared. Capacity sweeps over dozens of points are
// memory-bandwidth-bound on the recorded trace, so sharing the decode is
// where the wall-clock goes.
//
// All configs must agree on Threads, Budget, Seed and WarmupFraction (they
// share the run), and none may attach Prefetchers or observers (those need
// per-access delivery); MeasureMulti panics otherwise. The runner
// must reproduce the same event streams for the same (threads, budget,
// seed) — in practice, wrap it in a Replayer.
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
	for i := range cfgs {
		mc := &cfgs[i]
		if mc.Threads <= 0 || mc.Cores <= 0 || mc.SMTWays <= 0 {
			panic("workload: MeasureMulti needs positive cores/threads/SMT")
		}
		if mc.Prefetchers != nil || mc.AccessObserver != nil || mc.BranchObserver != nil {
			panic("workload: MeasureMulti does not support prefetchers or observers; use Measure")
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

	n := len(cfgs)
	hs := make([]*cache.Hierarchy, n)
	sys := make([]*mem.System, n)
	l4Hit := make([]float64, n)
	l4Pen := make([]float64, n)
	for i := range cfgs {
		hs[i], sys[i], l4Hit[i], l4Pen[i] = buildHierarchy(cfgs[i])
	}

	bt := newBranchTally(r, cfgs, nil)

	sinks := Sinks{
		// Batching-aware runners (the Replayer) deliver zero-copy windows;
		// anything else delivers one access at a time, same per-hierarchy
		// order.
		AccessBatch: func(b []trace.Access) {
			for _, h := range hs {
				h.AccessBatch(b, nil)
			}
		},
		Access: func(a trace.Access) {
			for _, h := range hs {
				h.Access(a)
			}
		},
		Branch: bt.sink(),
	}

	// Warmup once, reset everything, then the measured run — the same
	// phases Measure performs, shared across all configurations.
	if bt.warm.budget > 0 {
		r.Run(base.Threads, bt.warm.budget, bt.warm.seed, sinks)
		for _, h := range hs {
			h.ResetStats()
		}
		for _, s := range sys {
			if s != nil {
				s.ResetStats()
			}
		}
	}
	bt.beginMeasured()
	run := r.Run(base.Threads, base.Budget, base.Seed, sinks)

	out := make([]Metrics, n)
	for i := range cfgs {
		out[i] = reduce(r, cfgs[i], hs[i], sys[i], bt.mispredicts(i), run, l4Hit[i], l4Pen[i])
	}
	return out
}
