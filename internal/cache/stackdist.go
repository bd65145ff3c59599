package cache

import (
	"fmt"
	"math"

	"searchmem/internal/stats"
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
// for power-of-two capacities and log-interpolated in between.
type StackDist struct {
	blockShift uint
	time       uint64
	last       map[uint64]uint64 // block -> last access time

	tree ostree

	// counts[seg][b] tallies accesses with distance in bucket b, where
	// bucket 0 is distance 0 and bucket b >= 1 covers [2^(b-1), 2^b).
	counts [trace.NumSegments][65]int64
	cold   [trace.NumSegments]int64 // first-touch accesses (infinite distance)
}

// NewStackDist returns a profiler at the given block granularity (a power of
// two; 64 matches the paper's simulations).
func NewStackDist(blockSize int) *StackDist {
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		panic("cache: stack distance block size must be a positive power of two")
	}
	s := &StackDist{last: make(map[uint64]uint64)}
	for bs := blockSize; bs > 1; bs >>= 1 {
		s.blockShift++
	}
	s.tree.init()
	return s
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
	s.time++
	t := s.time
	if old, seen := s.last[block]; seen {
		dist := s.tree.countGreater(old)
		s.tree.remove(old)
		s.counts[seg][distBucket(dist)]++
	} else {
		s.cold[seg]++
	}
	s.tree.insertMax(t)
	s.last[block] = t
}

// distBucket maps a distance to its bucket index.
func distBucket(d int64) int {
	if d == 0 {
		return 0
	}
	b := 1
	for d > 1 {
		d >>= 1
		b++
	}
	return b
}

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

// --- order-statistic treap over access times ---

// ostree is an order-statistic treap keyed by access time. Keys are inserted
// in strictly increasing order (insertMax) and removed arbitrarily; it
// supports counting keys greater than a given key in O(log n).
type ostree struct {
	key   []uint64
	prio  []uint32
	size  []int32
	left  []int32
	right []int32
	free  []int32
	root  int32
	rng   *stats.RNG
}

func (t *ostree) init() {
	t.root = -1
	t.rng = stats.NewRNG(0x05Dd15f)
}

func (t *ostree) newNode(key uint64) int32 {
	if n := len(t.free); n > 0 {
		idx := t.free[n-1]
		t.free = t.free[:n-1]
		t.key[idx] = key
		t.prio[idx] = uint32(t.rng.Uint64())
		t.size[idx] = 1
		t.left[idx], t.right[idx] = -1, -1
		return idx
	}
	t.key = append(t.key, key)
	t.prio = append(t.prio, uint32(t.rng.Uint64()))
	t.size = append(t.size, 1)
	t.left = append(t.left, -1)
	t.right = append(t.right, -1)
	return int32(len(t.key) - 1)
}

func (t *ostree) sz(n int32) int32 {
	if n < 0 {
		return 0
	}
	return t.size[n]
}

func (t *ostree) pull(n int32) {
	t.size[n] = 1 + t.sz(t.left[n]) + t.sz(t.right[n])
}

func (t *ostree) merge(l, r int32) int32 {
	if l < 0 {
		return r
	}
	if r < 0 {
		return l
	}
	if t.prio[l] > t.prio[r] {
		t.right[l] = t.merge(t.right[l], r)
		t.pull(l)
		return l
	}
	t.left[r] = t.merge(l, t.left[r])
	t.pull(r)
	return r
}

// insertMax inserts a key greater than every existing key.
func (t *ostree) insertMax(key uint64) {
	n := t.newNode(key)
	t.root = t.merge(t.root, n)
}

// remove deletes key (which must be present).
func (t *ostree) remove(key uint64) {
	var rec func(n int32) int32
	rec = func(n int32) int32 {
		if n < 0 {
			panic(fmt.Sprintf("cache: stack-distance tree missing key %d", key))
		}
		if t.key[n] == key {
			res := t.merge(t.left[n], t.right[n])
			t.free = append(t.free, n)
			return res
		}
		if key < t.key[n] {
			t.left[n] = rec(t.left[n])
		} else {
			t.right[n] = rec(t.right[n])
		}
		t.pull(n)
		return n
	}
	t.root = rec(t.root)
}

// countGreater returns how many keys are strictly greater than key.
func (t *ostree) countGreater(key uint64) int64 {
	var count int64
	n := t.root
	for n >= 0 {
		if t.key[n] > key {
			count += int64(t.sz(t.right[n])) + 1
			n = t.left[n]
		} else {
			n = t.right[n]
		}
	}
	return count
}
