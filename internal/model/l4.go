package model

import "fmt"

// The L4 half of the analytical model: the design point whose latencies are
// AMATWithL4's tL4 and missPenalty arguments. The functional (hit/miss)
// behaviour of the L4 is simulated by internal/cache and main-memory device
// timing by internal/mem; this file only carries the paper's §IV-C latency
// parameters.

// L4Design is the paper's Alloy-style latency-optimized L4 configuration.
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
	// ParallelLookup records whether tag lookup overlaps memory
	// scheduling (documentation of the design point; the latency effect
	// is carried by MissPenaltyNS).
	ParallelLookup bool
	// Associativity is 1 for the direct-mapped baseline (tags and data in
	// one eDRAM row, one access per hit); the "Associative" sensitivity
	// configuration in Figure 14 uses a fully-associative model (0).
	Associativity int
	// NUMAPenaltyNS is the added cost of reaching a remote socket's L4 in
	// a multi-socket system (the memory-side placement trade-off).
	NUMAPenaltyNS float64
	// RemoteFraction is the fraction of L4 hits served from a remote
	// socket.
	RemoteFraction float64
}

// Validate reports whether the design is consistent.
func (d L4Design) Validate() error {
	if d.CapacityBytes <= 0 {
		return fmt.Errorf("model: L4 capacity must be positive")
	}
	if d.HitLatencyNS <= 0 {
		return fmt.Errorf("model: L4 hit latency must be positive")
	}
	if d.MissPenaltyNS < 0 || d.NUMAPenaltyNS < 0 {
		return fmt.Errorf("model: L4 penalties must be non-negative")
	}
	if d.RemoteFraction < 0 || d.RemoteFraction > 1 {
		return fmt.Errorf("model: remote fraction must be in [0,1]")
	}
	if d.Associativity < 0 {
		return fmt.Errorf("model: negative associativity")
	}
	return nil
}

// EffectiveHitLatencyNS returns the average L4 hit latency including NUMA
// effects.
func (d L4Design) EffectiveHitLatencyNS() float64 {
	return d.HitLatencyNS + d.RemoteFraction*d.NUMAPenaltyNS
}

// BaselineL4 returns the paper's baseline design: direct-mapped, 40 ns hit,
// parallel lookup (no miss penalty).
func BaselineL4(capacity int64) L4Design {
	return L4Design{
		CapacityBytes:  capacity,
		HitLatencyNS:   40,
		MissPenaltyNS:  0,
		ParallelLookup: true,
		Associativity:  1,
	}
}

// PessimisticL4 returns the paper's pessimistic sensitivity configuration:
// 60 ns hit latency and a 5 ns serialized miss penalty.
func PessimisticL4(capacity int64) L4Design {
	return L4Design{
		CapacityBytes:  capacity,
		HitLatencyNS:   60,
		MissPenaltyNS:  5,
		ParallelLookup: false,
		Associativity:  1,
	}
}

// AssociativeL4 returns the fully-associative sensitivity configuration used
// to bound the cost of direct-mapped conflicts (Figure 14, "Associative").
func AssociativeL4(capacity int64) L4Design {
	d := BaselineL4(capacity)
	d.Associativity = 0
	return d
}
