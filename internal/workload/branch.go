package workload

import (
	"sync"

	"searchmem/internal/cpu"
)

// Branch outcomes are a property of (recording pair, predictor shape): the
// per-core gshare predictors see the branch stream and nothing of the cache
// hierarchy, so every measurement of one recording with one shape gets the
// same counts. A Replayer therefore runs the predictors once per
// (warm-up key, measured key, shape) and hands the counts to every Measure and
// MeasureMulti that asks; only runners without a recording to memoize on, and
// measurements with a BranchObserver (which must see each branch), run the
// predictors live.

// branchCounts is one core's measured-phase predictor outcome.
type branchCounts struct{ Predictions, Mispredicts int64 }

// branchShape is everything about a MeasureConfig the branch outcome depends
// on besides the run keys.
type branchShape struct{ cores, smt int }

func shapeOf(mc *MeasureConfig) branchShape {
	return branchShape{cores: mc.Cores, smt: mc.SMTWays}
}

// coreTable maps every thread id to its core (SMT threads share their core's
// predictor), replacing two integer divisions per branch with one load.
func (s branchShape) coreTable() (tab [256]uint8) {
	for t := range tab {
		tab[t] = uint8(t / s.smt % s.cores)
	}
	return tab
}

// newPredictors builds the shape's fresh per-core predictors.
func (s branchShape) newPredictors() []cpu.PredictorStats {
	preds := make([]cpu.PredictorStats, s.cores)
	for i := range preds {
		preds[i].P = cpu.NewGshare(predictorBits)
	}
	return preds
}

// zeroCounts restarts the predictors' counters at the end of warm-up; the
// trained tables stay.
func zeroCounts(preds []cpu.PredictorStats) {
	for i := range preds {
		preds[i].Predictions, preds[i].Mispredicts = 0, 0
	}
}

// measureKeys returns the two recordings a measurement with the normalized
// config mc replays: the warm-up run (budget 0 when warm-up is disabled) and
// the measured run.
func measureKeys(mc *MeasureConfig) (warm, main runKey) {
	main = runKey{threads: mc.Threads, budget: mc.Budget, seed: mc.Seed}
	if b := int64(float64(mc.Budget) * mc.WarmupFraction); b > 0 {
		warm = runKey{threads: mc.Threads, budget: b, seed: mc.Seed ^ 0xbeef}
	}
	return warm, main
}

// branchKey names one memoized predictor pass (warm.budget 0 = no warm-up).
type branchKey struct {
	warm, main runKey
	shape      branchShape
}

// branchMemo is one branchKey's outcome, computed by the first caller.
type branchMemo struct {
	once   sync.Once
	counts []branchCounts
}

// observeBranches runs a recording's branch stream through per-core
// predictors.
func observeBranches(preds []cpu.PredictorStats, coreOf *[256]uint8, log *branchLog) {
	cur := branchCursor{log: log}
	for chunk := cur.nextChunk(); len(chunk) > 0; chunk = cur.nextChunk() {
		for _, b := range chunk {
			preds[coreOf[b.thread()]].Observe(cpu.Branch{PC: b.pc, Taken: b.taken()})
		}
	}
}

// branchCounts returns the per-core measured-phase counts of fresh predictors
// of k.shape trained on k.warm's branches, zeroed, then run over k.main's:
// what a live Branch sink accumulates over the same two replays. The first
// caller of a key computes it, concurrent callers wait for it, and like the
// recordings it is never evicted (cores x 16 B). The two recordings are
// requested warm-up first, Measure's order, so the memo cannot move the
// recording order.
func (r *Replayer) branchCounts(k branchKey) []branchCounts {
	r.mu.Lock()
	m := r.branches[k]
	if m == nil {
		m = &branchMemo{}
		r.branches[k] = m
	}
	r.mu.Unlock()
	m.once.Do(func() {
		r.branchPasses.Add(1)
		preds := k.shape.newPredictors()
		coreOf := k.shape.coreTable()
		if k.warm.budget > 0 {
			observeBranches(preds, &coreOf, &r.record(k.warm).branches)
		}
		zeroCounts(preds)
		observeBranches(preds, &coreOf, &r.record(k.main).branches)
		m.counts = make([]branchCounts, len(preds))
		for i, p := range preds {
			m.counts[i] = branchCounts{Predictions: p.Predictions, Mispredicts: p.Mispredicts}
		}
	})
	return m.counts
}

// liveShape is one predictor shape observing the branch stream as it runs.
type liveShape struct {
	shape  branchShape
	preds  []cpu.PredictorStats
	coreOf [256]uint8
}

// branchTally obtains the measured-phase branch counts for a set of
// configurations that share one run (Measure passes one, MeasureMulti many):
// from the Replayer's memo when the runner is one and nobody observes
// individual branches, otherwise by running each distinct shape's predictors
// once over the live stream.
type branchTally struct {
	rep        *Replayer // non-nil: counts come from the memo and sink() is nil
	warm, main runKey
	shapes     []branchShape // per configuration
	live       []liveShape   // distinct shapes in first-use order; empty when memoized
	observer   func(thread uint8, mispredict bool)
	measuring  bool
}

// newBranchTally prepares the tally for cfgs (normalized, sharing their run
// keys). observer, when non-nil, forces the live path; it requires a single
// configuration.
func newBranchTally(r Runner, cfgs []MeasureConfig, observer func(thread uint8, mispredict bool)) *branchTally {
	bt := &branchTally{observer: observer, shapes: make([]branchShape, len(cfgs))}
	bt.warm, bt.main = measureKeys(&cfgs[0])
	for i := range cfgs {
		bt.shapes[i] = shapeOf(&cfgs[i])
	}
	if rep, ok := r.(*Replayer); ok && observer == nil {
		bt.rep = rep
		return bt
	}
	for _, s := range bt.shapes {
		if bt.liveFor(s) == nil {
			bt.live = append(bt.live, liveShape{shape: s, preds: s.newPredictors(), coreOf: s.coreTable()})
		}
	}
	return bt
}

func (bt *branchTally) liveFor(s branchShape) *liveShape {
	for i := range bt.live {
		if bt.live[i].shape == s {
			return &bt.live[i]
		}
	}
	return nil
}

// sink returns the Branch sink the runs must feed, nil when memoized.
func (bt *branchTally) sink() func(thread uint8, pc uint64, taken bool) {
	if bt.rep != nil {
		return nil
	}
	return func(t uint8, pc uint64, taken bool) {
		for i := range bt.live {
			ls := &bt.live[i]
			mis := ls.preds[ls.coreOf[t]].Observe(cpu.Branch{PC: pc, Taken: taken})
			if bt.measuring && bt.observer != nil {
				bt.observer(t, mis)
			}
		}
	}
}

// beginMeasured marks the end of warm-up: counters restart and the observer
// starts seeing branches.
func (bt *branchTally) beginMeasured() {
	for i := range bt.live {
		zeroCounts(bt.live[i].preds)
	}
	bt.measuring = true
}

// mispredicts returns configuration i's measured-phase mispredictions summed
// over cores, after the measured run.
func (bt *branchTally) mispredicts(i int) int64 {
	var total int64
	if bt.rep != nil {
		for _, c := range bt.rep.branchCounts(branchKey{warm: bt.warm, main: bt.main, shape: bt.shapes[i]}) {
			total += c.Mispredicts
		}
		return total
	}
	for _, p := range bt.liveFor(bt.shapes[i]).preds {
		total += p.Mispredicts
	}
	return total
}
