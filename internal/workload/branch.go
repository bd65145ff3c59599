package workload

import (
	"sync"

	"searchmem/internal/cpu"
)

// Branch outcomes are a property of (recording pair, predictor shape): the
// per-core gshare predictors see the branch stream and nothing of the cache
// hierarchy, so every measurement of one recording with one shape gets the
// same counts. A configuration's mispredictions are therefore read off the
// recordings' branch logs, never off the measured run: a Replayer runs the
// predictors once per (warm-up key, measured key, shape) and hands the counts
// to every Measure and MeasureMulti that asks, and a configuration with a
// BranchObserver, which must see each outcome, gets a pass of its own over
// the same logs.

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
// predictors, handing observer, when non-nil, each outcome in stream order.
func observeBranches(preds []cpu.PredictorStats, coreOf *[256]uint8, log *branchLog, observer func(thread uint8, mispredict bool)) {
	cur := branchCursor{log: log}
	for chunk := cur.nextChunk(); len(chunk) > 0; chunk = cur.nextChunk() {
		for _, b := range chunk {
			mis := preds[coreOf[b.thread()]].Observe(cpu.Branch{PC: b.pc, Taken: b.taken()})
			if observer != nil {
				observer(b.thread(), mis)
			}
		}
	}
}

// predictBranches returns the per-core measured-phase counts of fresh
// predictors of k.shape trained on k.warm's branches, zeroed, then run over
// k.main's, whose outcomes observer, when non-nil, sees in stream order. The
// two recordings are requested warm-up first, Measure's order, so a pass
// cannot move the recording order.
func (r *Replayer) predictBranches(k branchKey, observer func(thread uint8, mispredict bool)) []branchCounts {
	preds := k.shape.newPredictors()
	coreOf := k.shape.coreTable()
	if k.warm.budget > 0 {
		observeBranches(preds, &coreOf, &r.record(k.warm).branches, nil)
	}
	for i := range preds {
		preds[i].Predictions, preds[i].Mispredicts = 0, 0 // the trained tables stay
	}
	observeBranches(preds, &coreOf, &r.record(k.main).branches, observer)
	counts := make([]branchCounts, len(preds))
	for i, p := range preds {
		counts[i] = branchCounts{Predictions: p.Predictions, Mispredicts: p.Mispredicts}
	}
	return counts
}

// branchCounts is predictBranches for nobody observing, memoized: the first
// caller of a key computes it, concurrent callers wait for it, and like the
// recordings it is never evicted (cores x 16 B).
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
		m.counts = r.predictBranches(k, nil)
	})
	return m.counts
}

// mispredicts returns normalized configuration mc's measured-phase
// mispredictions summed over cores: from the memo, or, with a
// BranchObserver, from an unmemoized pass that feeds the observer.
func (r *Replayer) mispredicts(mc *MeasureConfig) int64 {
	warm, main := measureKeys(mc)
	k := branchKey{warm: warm, main: main, shape: shapeOf(mc)}
	var counts []branchCounts
	if mc.BranchObserver != nil {
		counts = r.predictBranches(k, mc.BranchObserver)
	} else {
		counts = r.branchCounts(k)
	}
	var total int64
	for _, c := range counts {
		total += c.Mispredicts
	}
	return total
}
