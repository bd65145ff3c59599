package cache

import (
	"fmt"
	"math"
	"math/bits"

	"searchmem/internal/trace"
)

// StackDist is a one-pass LRU stack-distance (reuse-distance) profiler.
//
// A single pass over a trace yields the hit rate of a fully-associative LRU
// cache of *every* capacity at once (Mattson's inclusion property), which is
// how the capacity-sweep experiments (Figures 6b/6c and 13) evaluate dozens
// of cache sizes without re-simulating. The paper itself justifies the
// fully-associative approximation: eliminating all conflicts changes L2/L3
// MPKI by under 1% (Figure 7a).
//
// Distances are bucketed at power-of-two boundaries, so hit rates are exact
// for power-of-two capacities and log-interpolated in between. Exact means
// exact: a distance of 2^k-1 and one of 2^k land in different buckets, so
// the structure underneath counts every distance precisely rather than
// approximating it.
//
// Every observed block takes the next slot in arrival order, and a Fenwick
// (binary-indexed) tree holds a 1 at the slot of each block's most recent
// access. A reuse's distance is the number of 1s above the block's old slot;
// the 1 then moves to the new slot. Both walks stop where the paths of the
// two slots meet, so a short reuse touches a few nearby tree entries whatever
// the tree's size. When the slots run out, the live ones are renumbered
// 1..live in order and the tree is rebuilt in one pass over a power-of-two
// slot count of at least twice the live count, so at least half as many
// observations as the rebuild visits entries pass before the next one.
//
// Limits: slots and tree counts are int32 and the largest tree has 2^30
// slots, which at the twofold headroom of a rebuild allows 2^29 distinct
// blocks (32 GiB of 64-byte blocks); Observe panics, naming the limit, on the
// first touch of one more. Resident state is 4 bytes per block (its slot)
// plus 8 bytes per slot (tree entry and owner) at one to four slots per
// block: 12-36 B per block beside the block -> id map, which a reuse only
// reads. The order-statistic treap this replaced held 24 B per block beside
// a block -> time map of twice the value width that every reuse rewrote.
type StackDist struct {
	blockShift uint
	maxSlots   int

	ids    map[uint64]int32 // block -> id, dense in first-touch order
	slotOf []int32          // id -> slot of the block's most recent access
	// tree[1:] is the Fenwick tree over slots 1..len(tree)-1, a power of
	// two; owner[slot] is the id that took the slot, which is live while
	// slotOf[owner[slot]] == slot.
	tree  []int32
	owner []int32
	next  int32 // next slot to hand out

	// counts[seg][b] tallies accesses with distance in bucket b, where
	// bucket 0 is distance 0 and bucket b >= 1 covers [2^(b-1), 2^b).
	counts [trace.NumSegments][65]int64
	cold   [trace.NumSegments]int64 // first-touch accesses (infinite distance)
}

// NewStackDist returns a profiler at the given block granularity (a power of
// two; 64 matches the paper's simulations).
func NewStackDist(blockSize int) *StackDist {
	return newStackDist(blockSize, 1<<10, 1<<30)
}

// newStackDist is NewStackDist with the initial and the largest slot count
// (powers of two) as arguments, so tests reach compaction and the limit with
// a handful of blocks.
func newStackDist(blockSize, slots, maxSlots int) *StackDist {
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		panic("cache: stack distance block size must be a positive power of two")
	}
	return &StackDist{
		blockShift: uint(bits.TrailingZeros(uint(blockSize))),
		maxSlots:   maxSlots,
		ids:        make(map[uint64]int32),
		tree:       make([]int32, slots+1),
		owner:      make([]int32, slots+1),
		next:       1,
	}
}

// Observe records one access (block-aligned; spans count each block).
func (s *StackDist) Observe(a trace.Access) {
	size := uint64(a.Size)
	if size == 0 {
		size = 1
	}
	first := a.Addr >> s.blockShift
	last := (a.Addr + size - 1) >> s.blockShift
	for b := first; b <= last; b++ {
		s.observeBlock(b, a.Seg)
	}
}

func (s *StackDist) observeBlock(block uint64, seg trace.Segment) {
	if int(s.next) == len(s.tree) {
		s.compact()
	}
	slot := s.next
	s.next++
	id, seen := s.ids[block]
	if seen {
		old := s.slotOf[id]
		// Every slot above old that still holds its 1 is a distinct block
		// touched since this one.
		s.counts[seg][distBucket(s.between(old, slot-1))]++
		s.move(old, slot)
	} else {
		if 2*len(s.slotOf) == s.maxSlots {
			panic(fmt.Sprintf("cache: StackDist is limited to %d distinct blocks", s.maxSlots/2))
		}
		id = int32(len(s.slotOf))
		s.ids[block] = id
		s.slotOf = append(s.slotOf, 0)
		s.cold[seg]++
		for i := int(slot); i < len(s.tree); i += i & -i {
			s.tree[i]++
		}
	}
	s.slotOf[id] = slot
	s.owner[slot] = id
}

// between counts the 1s at slots lo+1..hi (lo <= hi): prefix(hi) minus
// prefix(lo), both downward walks cut off where they meet.
func (s *StackDist) between(lo, hi int32) int64 {
	var n int32
	for hi > lo {
		n += s.tree[hi]
		hi &= hi - 1
	}
	for lo > hi {
		n -= s.tree[lo]
		lo &= lo - 1
	}
	return int64(n)
}

// move takes the 1 at slot from to the higher slot to. The two upward walks
// share every entry from the first one they have in common — the last tree
// entry at the latest, which every walk ends on because the slot count is a
// power of two — and there -1 and +1 cancel.
func (s *StackDist) move(from, to int32) {
	for from != to {
		if from < to {
			s.tree[from]--
			from += from & -from
		} else {
			s.tree[to]++
			to += to & -to
		}
	}
}

// compact renumbers the live slots 1..live in arrival order and rebuilds the
// tree over a power-of-two slot count of at least twice the live count (every
// block ever seen holds one live slot, and the limit in observeBlock keeps
// twice their number inside maxSlots).
func (s *StackDist) compact() {
	live := 0
	for slot := 1; slot < len(s.owner); slot++ {
		if id := s.owner[slot]; s.slotOf[id] == int32(slot) {
			live++
			s.owner[live] = id
			s.slotOf[id] = int32(live)
		}
	}
	if 2*live > len(s.tree)-1 {
		slots := 1 << bits.Len(uint(2*live-1))
		owner := make([]int32, slots+1)
		copy(owner, s.owner[:live+1])
		s.owner, s.tree = owner, make([]int32, slots+1)
	}
	// Entry i of a Fenwick tree sums the slots (i - lowbit(i), i], of which
	// exactly 1..live hold a 1.
	for i := range s.tree {
		s.tree[i] = int32(max(0, min(i, live)-(i&(i-1))))
	}
	s.next = int32(live + 1)
}

// distBucket maps a distance to its bucket index.
func distBucket(d int64) int { return bits.Len64(uint64(d)) }

// Accesses returns the number of block probes observed for seg.
func (s *StackDist) Accesses(seg trace.Segment) int64 {
	t := s.cold[seg]
	for _, c := range s.counts[seg] {
		t += c
	}
	return t
}

// ColdMisses returns first-touch accesses for seg: these miss in a cache of
// any capacity.
func (s *StackDist) ColdMisses(seg trace.Segment) int64 { return s.cold[seg] }

// Hits returns how many of seg's accesses would hit in a fully-associative
// LRU cache of capBytes capacity. Exact for power-of-two capacities (in
// blocks); log-interpolated otherwise.
func (s *StackDist) Hits(seg trace.Segment, capBytes int64) float64 {
	capBlocks := float64(capBytes) / math.Exp2(float64(s.blockShift))
	if capBlocks < 1 {
		return 0
	}
	m := math.Log2(capBlocks)
	whole := int(math.Floor(m))
	var hits float64
	for b := 0; b <= whole && b < len(s.counts[seg]); b++ {
		hits += float64(s.counts[seg][b])
	}
	// Interpolate within the partially covered bucket.
	frac := m - float64(whole)
	if frac > 0 && whole+1 < len(s.counts[seg]) {
		hits += frac * float64(s.counts[seg][whole+1])
	}
	return hits
}

// Misses returns seg's miss count at capBytes.
func (s *StackDist) Misses(seg trace.Segment, capBytes int64) float64 {
	return float64(s.Accesses(seg)) - s.Hits(seg, capBytes)
}

// SegMPKI returns seg's misses per kilo-instruction at capBytes.
func (s *StackDist) SegMPKI(seg trace.Segment, capBytes int64, instructions int64) float64 {
	if instructions == 0 {
		return 0
	}
	return s.Misses(seg, capBytes) / float64(instructions) * 1000
}
