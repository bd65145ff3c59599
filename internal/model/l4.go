package model

import "fmt"

// The L4 half of the analytical model: the design point whose latencies are
// AMATWithL4's tL4 and missPenalty arguments. The functional (hit/miss)
// behaviour of the L4 is simulated by internal/cache and main-memory device
// timing by internal/mem; this file only carries the paper's §IV-C latency
// parameters.

// L4Design is the paper's Alloy-style latency-optimized L4 configuration.
// Its organisation (direct-mapped or fully associative) moves hit rates, not
// latencies, so it is a knob of the functional simulation
// (workload.MeasureConfig.L4Assoc), not of this type.
type L4Design struct {
	// CapacityBytes is the eDRAM capacity.
	CapacityBytes int64
	// HitLatencyNS is the L4 hit latency (40 ns baseline, consistent with
	// commercial eDRAM L4 implementations the paper cites).
	HitLatencyNS float64
	// MissPenaltyNS is added to main-memory latency on an L4 miss. The
	// baseline design performs the L4 tag lookup in parallel with memory
	// scheduling, making this 0; the pessimistic variant serializes them
	// (5 ns).
	MissPenaltyNS float64
}

// Validate reports whether the design is consistent.
func (d L4Design) Validate() error {
	if d.CapacityBytes <= 0 {
		return fmt.Errorf("model: L4 capacity must be positive")
	}
	if d.HitLatencyNS <= 0 {
		return fmt.Errorf("model: L4 hit latency must be positive")
	}
	if d.MissPenaltyNS < 0 {
		return fmt.Errorf("model: L4 miss penalty must be non-negative")
	}
	return nil
}

// BaselineL4 returns the paper's baseline design: 40 ns hit, parallel lookup
// (no miss penalty).
func BaselineL4(capacity int64) L4Design {
	return L4Design{CapacityBytes: capacity, HitLatencyNS: 40}
}

// PessimisticL4 returns the paper's pessimistic sensitivity configuration:
// 60 ns hit latency and a 5 ns serialized miss penalty.
func PessimisticL4(capacity int64) L4Design {
	return L4Design{CapacityBytes: capacity, HitLatencyNS: 60, MissPenaltyNS: 5}
}
