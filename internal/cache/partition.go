package cache

// Set partitions. A set-associative cache whose replacement state is local to
// each set evolves every set independently of the others, so an upper whose
// every level keeps the lowest bit of the L3 block number inside its set
// index splits into two upper halves that share no state: one runs the blocks
// whose L3 block number is even, the other the odd ones. An L1 miss, its L2
// and L3 probes and fills, the victims those fills push out and the
// back-invalidations an L3 victim causes all stay inside the missing block's
// partition. The two halves can therefore run the same window on two
// goroutines, and their ports, every event tagged with the (access index,
// block ordinal) that caused it, merge back into the exact order the whole
// upper would have logged (FuzzHierarchyMatchesReference's partitioned
// view, DESIGN.md §11).

// Partitionable reports whether cfg's upper can be split into set partitions
// (Split): every L1–L3 cache is set-associative, runs LRU, FIFO or SRRIP
// without dead-block insertion, and has a set count that is a multiple of 2 ·
// (L3 block / its block), so its set index determines the lowest bit of the
// L3 block number. Random and BRRIP draw from one RNG per cache, DRRIP's
// PSEL counter and the dead-block table are trained by every set, and a
// fully-associative cache is one set: each couples the partitions, so those
// configurations are refused.
func Partitionable(cfg HierarchyConfig) bool {
	if cfg.Validate() != nil {
		return false
	}
	for _, c := range []Config{cfg.L1I, cfg.L1D, cfg.privateL2(), cfg.L3} {
		if c.Assoc == 0 || c.DeadBlock || (c.Policy != LRU && c.Policy != FIFO && c.Policy != SRRIP) {
			return false
		}
		sets := c.Size / int64(c.BlockSize) / int64(c.Assoc)
		if sets%(2*int64(cfg.L3.BlockSize/c.BlockSize)) != 0 {
			return false
		}
	}
	return true
}

// Split turns the upper h into set partition 0 and returns partition 1, a
// copy of h's cache contents and replacement state with zeroed counters, so
// the two partitions' counters sum to what h would have counted from here
// on. Each partition's AccessBatch and InstallPrefetch then run only its own
// blocks; MergePorts rebuilds h's port from theirs. h must be a whole upper
// of a Partitionable configuration with no tail and no L1-miss keying;
// Split panics otherwise.
func (h *Hierarchy) Split() *Hierarchy {
	if !Partitionable(h.cfg) || h.Tail != nil || h.keyMisses || h.partMask != 0 {
		panic("cache: Split needs a whole, partitionable upper with no tail and no L1-miss keying")
	}
	twin := NewUpper(h.cfg, false)
	dst := twin.caches()
	for i, c := range h.caches() {
		dst[i].copyFrom(c)
	}
	h.partMask = 1 << (h.l3.blockShift - h.l1Shift)
	twin.partMask, twin.partWant = h.partMask, h.partMask
	return twin
}

// caches lists the upper's caches in a fixed order.
func (h *Hierarchy) caches() []*Cache {
	all := append([]*Cache{h.l3}, h.l1i...)
	all = append(all, h.l1d...)
	all = append(all, h.l2...)
	return append(all, h.l2i...)
}

// copyFrom makes c's contents and replacement state those of src, a
// set-associative cache of the same configuration. The clock comes along so
// the stamps c assigns from here on stay above the copied ones. A cache
// whose policy Partitionable admits keeps no other state; c's counters are
// left as they are.
func (c *Cache) copyFrom(src *Cache) {
	copy(c.tags, src.tags)
	copy(c.stamps, src.stamps)
	copy(c.meta, src.meta)
	copy(c.occ, src.occ)
	copy(c.owners, src.owners)
	c.clock = src.clock
	c.lastBlock, c.lastIdx = src.lastBlock, src.lastIdx
}

// MergePorts writes into dst the port the whole upper would have logged for
// one batch, from the ports a and b its two set partitions logged for it.
// Each partition logs its events in (access index, block ordinal) order, and
// all events of one (access index, block ordinal) come from the partition
// that owns the block, so merging by that key is the serial order. The
// partitions key no L1 misses, so dst has none either.
func MergePorts(dst, a, b *Port) {
	dst.reset()
	ea, eb := a.events, b.events
	for len(ea) > 0 && len(eb) > 0 {
		if ea[0].at() < eb[0].at() {
			dst.events = append(dst.events, ea[0])
			ea = ea[1:]
		} else {
			dst.events = append(dst.events, eb[0])
			eb = eb[1:]
		}
	}
	dst.events = append(append(dst.events, ea...), eb...)
}

// Add accumulates v into u: the counters of two set partitions sum to the
// whole upper's.
func (u *UpperStats) Add(v *UpperStats) {
	u.L1I.Add(&v.L1I)
	u.L1D.Add(&v.L1D)
	u.L2.Add(&v.L2)
	u.L3.Add(&v.L3)
	u.PrefetchFills += v.PrefetchFills
}
