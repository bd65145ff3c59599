package cache

import (
	"fmt"

	"searchmem/internal/trace"
)

// MissClass categorizes a cache miss per the classic 3C model.
type MissClass uint8

const (
	// MissCold is a first-ever touch of the block: unavoidable at any size.
	MissCold MissClass = iota
	// MissCapacity would also miss in a fully-associative cache of the
	// same capacity: the working set simply does not fit.
	MissCapacity
	// MissConflict hits in the fully-associative shadow but missed in the
	// real cache: lost to limited associativity.
	MissConflict

	// NumMissClasses is the number of classes.
	NumMissClasses = 3
)

// String implements fmt.Stringer.
func (m MissClass) String() string {
	switch m {
	case MissCold:
		return "cold"
	case MissCapacity:
		return "capacity"
	case MissConflict:
		return "conflict"
	default:
		return fmt.Sprintf("missclass(%d)", uint8(m))
	}
}

// Classifier decomposes one cache's misses into cold/capacity/conflict by
// running a fully-associative LRU shadow cache of equal capacity alongside
// the real cache. It backs the paper's §III-C analysis ("conflict misses are
// not as significant as capacity misses"; shard accesses are mostly cold).
type Classifier struct {
	real   *Cache
	shadow *Cache
	seen   map[uint64]struct{}

	// Counts tallies misses per segment and class; Hits tallies real-cache
	// hits per segment.
	Counts [trace.NumSegments][NumMissClasses]int64
	Hits   [trace.NumSegments]int64
}

// NewClassifier builds a classifier for a standalone cache config. The
// shadow uses the same capacity and block size with full associativity.
func NewClassifier(cfg Config) *Classifier {
	return &Classifier{
		real:   New(cfg),
		shadow: New(Config{Name: cfg.Name + "-shadow", Size: cfg.Size, BlockSize: cfg.BlockSize}),
		seen:   make(map[uint64]struct{}),
	}
}

// Observe runs one access through the classifier (block-splitting spans).
func (cl *Classifier) Observe(a trace.Access) {
	size := uint64(a.Size)
	if size == 0 {
		size = 1
	}
	first := cl.real.BlockAddr(a.Addr)
	last := cl.real.BlockAddr(a.Addr + size - 1)
	for b := first; b <= last; b++ {
		cl.observeBlock(b, a.Seg, a.Kind)
	}
}

func (cl *Classifier) observeBlock(block uint64, seg trace.Segment, kind trace.Kind) {
	realHit := cl.real.Access(block, seg, kind)
	shadowHit := cl.shadow.touch(block, kind == trace.Write)
	_, wasSeen := cl.seen[block]
	if !realHit {
		cl.real.Fill(block, seg, kind == trace.Write)
	}
	if !shadowHit {
		cl.shadow.Fill(block, seg, kind == trace.Write)
	}
	if realHit {
		cl.Hits[seg]++
	} else {
		switch {
		case !wasSeen:
			cl.Counts[seg][MissCold]++
		case !shadowHit:
			cl.Counts[seg][MissCapacity]++
		default:
			cl.Counts[seg][MissConflict]++
		}
	}
	if !wasSeen {
		cl.seen[block] = struct{}{}
	}
}

// Misses returns total misses for seg across classes.
func (cl *Classifier) Misses(seg trace.Segment) int64 {
	var t int64
	for c := 0; c < NumMissClasses; c++ {
		t += cl.Counts[seg][c]
	}
	return t
}

// TotalMisses returns misses across all segments.
func (cl *Classifier) TotalMisses() int64 {
	var t int64
	for seg := trace.Segment(0); seg < trace.NumSegments; seg++ {
		t += cl.Misses(seg)
	}
	return t
}

// ClassShare returns the fraction of all misses in the given class, or 0
// with no misses.
func (cl *Classifier) ClassShare(class MissClass) float64 {
	total := cl.TotalMisses()
	if total == 0 {
		return 0
	}
	var n int64
	for seg := trace.Segment(0); seg < trace.NumSegments; seg++ {
		n += cl.Counts[seg][class]
	}
	return float64(n) / float64(total)
}
