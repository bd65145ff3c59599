package experiments

import (
	"searchmem/internal/cache"
	"searchmem/internal/trace"
)

// microL2Eff is the aggregate private-cache capacity assumed in front of
// the modeled L3 at micro scale (16 threads' worth of 256 KiB L2s).
const microL2Eff = 16 * 256 << 10

// totalMisses sums a profiler's misses at a capacity across segments.
func totalMisses(sd *cache.StackDist, capacity int64) float64 {
	var m float64
	for seg := trace.Segment(0); seg < trace.NumSegments; seg++ {
		m += sd.Misses(seg, capacity)
	}
	return m
}

// postL2HitRate is the one post-L2 normalization of the capacity-sweep
// experiments: a segment's hit rate at a capacity among the accesses that
// miss private caches of aggregate size l2eff, optionally excluding cold
// misses (the steady-state view for finite working sets; see DESIGN.md and
// the calibration tests), clamped to [0, 1].
func postL2HitRate(sd *cache.StackDist, seg trace.Segment, capacity, l2eff int64, excludeCold bool) float64 {
	var cold float64
	if excludeCold {
		cold = float64(sd.ColdMisses(seg))
	}
	base := sd.Misses(seg, l2eff) - cold
	if base <= 0 {
		return 1
	}
	h := 1 - (sd.Misses(seg, capacity)-cold)/base
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}

// l3Curve wraps a stack-distance profiler with the post-L2 normalization
// used for L3 hit-rate curves (DESIGN.md: hits among post-L2 misses).
type l3Curve struct {
	sd *cache.StackDist
}

// newL3Curve returns a fresh combined-curve profiler at 64 B blocks.
func newL3Curve() *l3Curve {
	return &l3Curve{sd: cache.NewStackDist(64)}
}

func (l *l3Curve) Observe(a trace.Access) { l.sd.Observe(a) }

// combinedHitRate returns the modeled L3 hit rate at the given capacity.
func (l *l3Curve) combinedHitRate(capacity int64) float64 {
	base := totalMisses(l.sd, microL2Eff)
	if base <= 0 {
		return 1
	}
	h := 1 - totalMisses(l.sd, capacity)/base
	if h < 0 {
		return 0
	}
	return h
}

// dataHitRate returns the post-L2 hit rate of all data segments combined.
func (l *l3Curve) dataHitRate(capacity int64) float64 {
	var miss, base float64
	for _, seg := range []trace.Segment{trace.Heap, trace.Shard, trace.Stack} {
		miss += l.sd.Misses(seg, capacity)
		base += l.sd.Misses(seg, microL2Eff)
	}
	if base <= 0 {
		return 1
	}
	h := 1 - miss/base
	if h < 0 {
		return 0
	}
	return h
}

// codeHitRate returns the post-L2 instruction hit rate (cold-excluded:
// the code working set is finite and fully amortized in steady state).
func (l *l3Curve) codeHitRate(capacity int64) float64 {
	return postL2HitRate(l.sd, trace.Code, capacity, microL2Eff, true)
}

// segmentStackDists is a per-segment profiler set (segment-local reuse
// distances; see calibration notes on why per-segment curves use local
// distances at sweep scale).
type segmentStackDists struct {
	sds   [trace.NumSegments]*cache.StackDist
	l2eff int64
}

func newSegmentStackDists(l2eff int64) *segmentStackDists {
	s := &segmentStackDists{l2eff: l2eff}
	for i := range s.sds {
		s.sds[i] = cache.NewStackDist(64)
	}
	return s
}

// hitRate returns a segment's post-L2 hit rate at a capacity. Cold misses
// are excluded for code and heap (finite, amortized working sets) and
// included for the shard (structural cold misses), matching the paper's
// steady-state traces.
func (s *segmentStackDists) hitRate(seg trace.Segment, capacity int64) float64 {
	return postL2HitRate(s.sds[seg], seg, capacity, s.l2eff, seg == trace.Code || seg == trace.Heap)
}

// mpki returns a segment's misses per kilo-instruction at a capacity.
func (s *segmentStackDists) mpki(seg trace.Segment, capacity int64, instructions int64) float64 {
	return s.sds[seg].SegMPKI(seg, capacity, instructions)
}

// combinedMPKI sums per-segment MPKIs.
func (s *segmentStackDists) combinedMPKI(capacity int64, instructions int64) float64 {
	var m float64
	for seg := trace.Segment(0); seg < trace.NumSegments; seg++ {
		m += s.mpki(seg, capacity, instructions)
	}
	return m
}
