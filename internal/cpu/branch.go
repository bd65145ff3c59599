// Package cpu models the core-side microarchitecture: branch predictors,
// TLBs, hardware prefetchers, the Top-Down slot-accounting model used for
// Figure 3, and the SMT throughput model used for Figure 2b.
//
// The cache hierarchy itself lives in internal/cache; this package supplies
// everything the paper measures with core performance counters.
package cpu

import (
	"fmt"
)

// Branch is one dynamic conditional branch: its instruction address and
// whether it was taken. The synthetic code generator (internal/codegen)
// emits these alongside the instruction-fetch trace.
type Branch struct {
	PC    uint64
	Taken bool
}

// PredictorStats drives a predictor over a branch stream and accumulates
// accuracy statistics.
type PredictorStats struct {
	P                        *Gshare
	Predictions, Mispredicts int64
}

// Observe processes one branch and reports whether it mispredicted, so
// per-branch observers (the obs sampling profiler) can attribute outcomes
// without a second prediction pass.
func (s *PredictorStats) Observe(b Branch) bool {
	pred := s.P.Predict(b.PC)
	mispredict := pred != b.Taken
	if mispredict {
		s.Mispredicts++
	}
	s.Predictions++
	s.P.Update(b.PC, b.Taken)
	return mispredict
}

// counter2 is a saturating 2-bit counter: 0-1 predict not-taken, 2-3 taken.
type counter2 = uint8

func counterPredict(c counter2) bool { return c >= 2 }

func counterUpdate(c counter2, taken bool) counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Gshare XORs global branch history with the PC to index a shared 2-bit
// counter table: the workhorse predictor class of the platforms the paper
// measures.
type Gshare struct {
	table   []counter2
	mask    uint64
	history uint64
}

// NewGshare returns a gshare predictor with 2^bits entries and bits of
// global history.
func NewGshare(bits uint) *Gshare {
	if bits == 0 || bits > 24 {
		panic(fmt.Sprintf("cpu: gshare bits %d out of range (1-24)", bits))
	}
	n := uint64(1) << bits
	t := make([]counter2, n)
	for i := range t {
		t[i] = 2
	}
	return &Gshare{table: t, mask: n - 1}
}

func (g *Gshare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict returns the predicted direction for the branch at pc.
func (g *Gshare) Predict(pc uint64) bool {
	return counterPredict(g.table[g.index(pc)])
}

// Update trains the predictor with the resolved direction.
func (g *Gshare) Update(pc uint64, taken bool) {
	idx := g.index(pc)
	g.table[idx] = counterUpdate(g.table[idx], taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= g.mask
}
