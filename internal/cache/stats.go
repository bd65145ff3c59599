// Package cache implements the trace-driven functional cache simulator used
// throughout the reproduction.
//
// It mirrors the simulator described in §III-A of the paper: inclusive and
// non-inclusive caches, configurable allocation policies, associativities and
// block sizes, LRU replacement, no coherence (production search has
// negligible read-write sharing between threads), and miss-rate/MPKI output
// rather than timing (timing comes from the analytical model in
// internal/model).
package cache

import (
	"fmt"

	"searchmem/internal/trace"
)

// AccessStats accumulates hit/miss counts per segment and access kind for
// one cache (or one aggregated level).
type AccessStats struct {
	Hits   [trace.NumSegments][trace.NumKinds]int64
	Misses [trace.NumSegments][trace.NumKinds]int64
	// WritebackFills counts blocks installed by dirty writebacks from an
	// upper level rather than by demand fills (kept separate so they do
	// not distort demand hit rates).
	WritebackFills int64
	// BackInvalidations counts lines invalidated to preserve inclusion.
	BackInvalidations int64
	// PredHits counts level-prediction verifications this cache confirmed;
	// PredMispredicts counts mispredictions charged to it (a wasted
	// verification probe here, or — for a wrong memory bypass — the access
	// this level serviced). PredSkips counts serial probes of this cache a
	// verified prediction avoided. All three are overlay accounting: the
	// Hits/Misses counters are measured by the authoritative probe chain
	// and are identical predictor-on and predictor-off (DESIGN.md §11).
	PredHits, PredMispredicts, PredSkips int64
}

// Add accumulates other into s.
func (s *AccessStats) Add(other *AccessStats) {
	for seg := 0; seg < trace.NumSegments; seg++ {
		for k := 0; k < trace.NumKinds; k++ {
			s.Hits[seg][k] += other.Hits[seg][k]
			s.Misses[seg][k] += other.Misses[seg][k]
		}
	}
	s.WritebackFills += other.WritebackFills
	s.BackInvalidations += other.BackInvalidations
	s.PredHits += other.PredHits
	s.PredMispredicts += other.PredMispredicts
	s.PredSkips += other.PredSkips
}

// record tallies one probe outcome.
func (s *AccessStats) record(seg trace.Segment, kind trace.Kind, hit bool) {
	if hit {
		s.Hits[seg][kind]++
	} else {
		s.Misses[seg][kind]++
	}
}

// SegHits returns total hits for one segment across kinds.
func (s AccessStats) SegHits(seg trace.Segment) int64 {
	var t int64
	for k := 0; k < trace.NumKinds; k++ {
		t += s.Hits[seg][k]
	}
	return t
}

// SegMisses returns total misses for one segment across kinds.
func (s AccessStats) SegMisses(seg trace.Segment) int64 {
	var t int64
	for k := 0; k < trace.NumKinds; k++ {
		t += s.Misses[seg][k]
	}
	return t
}

// TotalHits returns hits across all segments and kinds.
func (s AccessStats) TotalHits() int64 {
	var t int64
	for seg := 0; seg < trace.NumSegments; seg++ {
		t += s.SegHits(trace.Segment(seg))
	}
	return t
}

// TotalMisses returns misses across all segments and kinds.
func (s AccessStats) TotalMisses() int64 {
	var t int64
	for seg := 0; seg < trace.NumSegments; seg++ {
		t += s.SegMisses(trace.Segment(seg))
	}
	return t
}

// Accesses returns the total number of demand probes.
func (s AccessStats) Accesses() int64 { return s.TotalHits() + s.TotalMisses() }

// HitRate returns the overall demand hit rate, or 0 with no accesses.
func (s AccessStats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.TotalHits()) / float64(a)
}

// SegHitRate returns the hit rate for one segment, or 0 with no accesses.
func (s AccessStats) SegHitRate(seg trace.Segment) float64 {
	h, m := s.SegHits(seg), s.SegMisses(seg)
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// MPKI returns total misses per kilo-instruction.
func (s AccessStats) MPKI(instructions int64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.TotalMisses()) / float64(instructions) * 1000
}

// KindMisses returns total misses for one access kind across segments.
func (s AccessStats) KindMisses(kind trace.Kind) int64 {
	var t int64
	for seg := 0; seg < trace.NumSegments; seg++ {
		t += s.Misses[seg][kind]
	}
	return t
}

// String implements fmt.Stringer with a compact per-segment summary.
func (s AccessStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d hitRate=%.2f%%",
		s.TotalHits(), s.TotalMisses(), 100*s.HitRate())
}
