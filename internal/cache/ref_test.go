package cache

// A naive reference hierarchy, written the way the policies' pseudo-code and
// the hierarchy's inclusion and write-back rules read: every cache is sets ×
// ways of plain structs and every access walks the levels inline, with no
// batches, port, line buffer, owner bytes or level predictor. It shares the
// package's exported types, tuning constants and stats.RNG, and calls no
// Cache, Hierarchy, Tail or Port code (FuzzHierarchyMatchesReference).

import (
	"cmp"
	"math/bits"
	"slices"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// refWay is one way. stamp is the clock at the last touch (LRU) or at the
// fill (FIFO, Random), or the RRPV under RRIP; reused marks an RRIP hit.
type refWay struct {
	block                uint64
	valid, dirty, reused bool
	seg                  trace.Segment
	stamp                uint64
}

// refCache is one cache, a slice of sets; a fully-associative cache is one
// set of all its blocks. Its methods take byte addresses.
type refCache struct {
	cfg   Config
	shift int
	sets  [][]refWay
	clock uint64
	psel  int
	dead  [1 << dbBits]uint8
	rng   *stats.RNG
	stats AccessStats
}

func newRefCache(cfg Config) *refCache {
	blocks := int(cfg.Size / int64(cfg.BlockSize))
	ways := cmp.Or(cfg.Assoc, blocks)
	r := &refCache{cfg: cfg, shift: bits.TrailingZeros(uint(cfg.BlockSize)), psel: pselMax / 2, rng: stats.NewRNG(cfg.Seed ^ 0x5eedcafe)}
	for range blocks / ways {
		r.sets = append(r.sets, make([]refWay, ways))
	}
	return r
}

func (r *refCache) find(addr uint64) *refWay {
	set := r.sets[addr>>r.shift%uint64(len(r.sets))]
	for i := range set {
		if set[i].valid && set[i].block == addr>>r.shift {
			return &set[i]
		}
	}
	return nil
}

// probe counts a demand hit or miss; a hit updates dirty and replacement.
func (r *refCache) probe(addr uint64, seg trace.Segment, kind trace.Kind) bool {
	w := r.find(addr)
	if w == nil {
		r.stats.Misses[seg][kind]++
		return false
	}
	r.stats.Hits[seg][kind]++
	w.dirty = w.dirty || kind == trace.Write
	if r.cfg.Policy == LRU {
		r.clock++
		w.stamp = r.clock
	} else if r.cfg.Policy.RRIP() {
		w.stamp, w.reused = 0, true
	}
	return true
}

// fill installs addr's block: a resident block only takes the dirty bit, an
// absent one replaces the first free way among the first AllocWays, or else
// the policy's victim, which fill returns.
func (r *refCache) fill(addr uint64, seg trace.Segment, dirty bool) (refWay, bool) {
	if w := r.find(addr); w != nil {
		w.dirty = w.dirty || dirty
		return refWay{}, false
	}
	block := addr >> r.shift
	s := int(block % uint64(len(r.sets)))
	ways := r.sets[s][:cmp.Or(r.cfg.AllocWays, len(r.sets[s]))]
	v := slices.IndexFunc(ways, func(w refWay) bool { return !w.valid })
	if v < 0 {
		v = r.victim(ways)
	}
	// The dead-block table trains at eviction: a line that leaves reused
	// votes live, an unused one votes dead.
	old := ways[v]
	if h := refDeadHash(old.block); old.valid && r.cfg.DeadBlock && old.reused {
		r.dead[h] = max(r.dead[h], 1) - 1
	} else if old.valid && r.cfg.DeadBlock {
		r.dead[h] = min(r.dead[h]+1, dbMax)
	}
	r.clock++
	ways[v] = refWay{block: block, valid: true, dirty: dirty, seg: seg, stamp: r.clock}
	if r.cfg.Policy.RRIP() {
		ways[v].stamp = r.insertRRPV(s, block)
	}
	return old, old.valid
}

// victim picks the way a fill into a full set replaces: a random one, the
// leftmost distant one after aging the set until one is, or the oldest.
func (r *refCache) victim(ways []refWay) int {
	if r.cfg.Policy == Random {
		return r.rng.Intn(len(ways))
	}
	for r.cfg.Policy.RRIP() {
		if i := slices.IndexFunc(ways, func(w refWay) bool { return w.stamp == rrpvMax }); i >= 0 {
			return i
		}
		for i := range ways {
			ways[i].stamp++
		}
	}
	return slices.Index(ways, slices.MinFunc(ways, func(a, b refWay) int { return cmp.Compare(a.stamp, b.stamp) }))
}

// insertRRPV is an RRIP fill's RRPV: long, but distant for BRRIP (and
// DRRIP's BRRIP side) except one fill in 32, and distant for a block the
// dead-block table predicts dead. DRRIP's leader sets train PSEL.
func (r *refCache) insertRRPV(set int, block uint64) uint64 {
	bimodal := r.cfg.Policy == BRRIP
	if r.cfg.Policy == DRRIP {
		switch set % (duelMask + 1) {
		case duelSRRIP:
			r.psel = min(r.psel+1, pselMax)
		case duelBRRIP:
			bimodal, r.psel = true, max(r.psel-1, 0)
		default:
			bimodal = r.psel > pselMax/2
		}
	}
	if bimodal && r.rng.Intn(brripInterval) != 0 || r.cfg.DeadBlock && r.dead[refDeadHash(block)] >= dbDeadAt {
		return rrpvMax
	}
	return rrpvLong
}

// refDeadHash indexes the dead-block table.
func refDeadHash(block uint64) uint64 { return block * 0x9e3779b97f4a7c15 >> (64 - dbBits) }

// refHierarchy is the reference L1–L4 over main memory's transcript.
type refHierarchy struct {
	cfg                             HierarchyConfig
	l1i, l1d, l2, l2i               []*refCache
	private                         []*refCache // all of the above
	l3, l4                          *refCache
	mem                             memTranscript
	prefetchFills, prefetchMemReads int64
	// dropDirtyL2Victim reproduces known limitation 5: the dirty line an
	// L1 write-back evicts from the L2 is lost instead of written back.
	dropDirtyL2Victim bool
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	r := &refHierarchy{cfg: cfg, l3: newRefCache(cfg.L3), dropDirtyL2Victim: true}
	if cfg.L4 != nil {
		r.l4 = newRefCache(*cfg.L4)
	}
	for c := range cfg.Cores {
		private := func(t Config) *refCache {
			t.Seed ^= uint64(c+1) * 0x9e3779b9
			return newRefCache(t)
		}
		l2 := cfg.L2
		if cfg.SplitL2 {
			set := int64(l2.BlockSize * l2.Assoc)
			l2.Size = max(l2.Size/2/set, 1) * set
			r.l2i = append(r.l2i, private(l2))
		}
		r.l1i, r.l1d, r.l2 = append(r.l1i, private(cfg.L1I)), append(r.l1d, private(cfg.L1D)), append(r.l2, private(l2))
	}
	r.private = slices.Concat(r.l1i, r.l1d, r.l2, r.l2i)
	return r
}

// access runs one access L1 block by L1 block; it returns the deepest level.
func (r *refHierarchy) access(a trace.Access) HitLevel {
	core := int(a.Thread) / r.cfg.ThreadsPerCore % r.cfg.Cores
	l1, l2 := r.l1d[core], r.l2[core]
	if a.Kind == trace.Fetch {
		l1 = r.l1i[core]
		if r.cfg.SplitL2 {
			l2 = r.l2i[core]
		}
	}
	deepest := HitL1
	for b := a.Addr >> l1.shift; b <= (a.Addr+max(uint64(a.Size), 1)-1)>>l1.shift; b++ {
		deepest = max(deepest, r.block(l1, l2, b<<l1.shift, a.Seg, a.Kind))
	}
	return deepest
}

// block walks one block down until a level holds it, reading memory if none
// does, then fills it back up the L3, the L2 and the L1.
func (r *refHierarchy) block(l1, l2 *refCache, addr uint64, seg trace.Segment, kind trace.Kind) HitLevel {
	if l1.probe(addr, seg, kind) {
		return HitL1
	}
	lvl := HitL2
	if !l2.probe(addr, seg, kind) {
		lvl = HitL3
		if !r.l3.probe(addr, seg, kind) {
			lvl = HitL4
			if r.l4 == nil || !r.l4.probe(addr, seg, kind) {
				lvl = HitMemory
				r.mem.MemRead(addr, seg)
			}
			r.put(r.l3, addr, seg, false)
		}
		r.put(l2, addr, seg, false)
	}
	if v, ok := l1.fill(addr, seg, kind == trace.Write); ok && v.dirty {
		r.put(l2, v.block<<l1.shift, v.seg, true)
	}
	return lvl
}

// prefetch installs addr's block in core's L2 and the L3, reading memory
// unless the L4 holds it (asked before the L3 fill's victim lands there).
func (r *refHierarchy) prefetch(core int, addr uint64, seg trace.Segment) {
	if core < 0 || core >= r.cfg.Cores || r.l2[core].find(addr) != nil {
		return
	}
	r.prefetchFills++
	if r.l3.find(addr) == nil {
		if r.l4 == nil || r.l4.find(addr) == nil {
			r.prefetchMemReads++
			r.mem.MemRead(addr, seg)
		}
		r.put(r.l3, addr, seg, false)
	}
	r.put(r.l2[core], addr, seg, false)
}

// put fills addr's block into c, an L2 or the L3. A dirty put is a
// write-back: it dirties a resident copy or counts a write-back fill. The
// L3's victim goes to evictL3; a dirty L2 victim is written back to the L3,
// unless an L1 write-back displaced it and dropDirtyL2Victim is set.
func (r *refHierarchy) put(c *refCache, addr uint64, seg trace.Segment, dirty bool) {
	if dirty && c.find(addr) == nil {
		c.stats.WritebackFills++
	}
	if v, ok := c.fill(addr, seg, dirty); ok && c == r.l3 {
		r.evictL3(v)
	} else if ok && v.dirty && !(dirty && r.dropDirtyL2Victim) {
		r.put(r.l3, v.block<<c.shift, v.seg, true)
	}
}

// evictL3 hands an L3 victim down: an inclusive L3 first invalidates every
// private copy of every core, folding a dirty one into the victim, which
// then fills the L4 (whose dirty victims write memory) or writes memory if
// dirty.
func (r *refHierarchy) evictL3(v refWay) {
	addr := v.block << r.l3.shift
	for _, c := range r.private {
		for off := 0; r.cfg.L3Inclusive && off < r.cfg.L3.BlockSize; off += 1 << c.shift {
			if w := c.find(addr + uint64(off)); w != nil {
				c.stats.BackInvalidations++
				v.dirty = v.dirty || w.dirty
				*w = refWay{}
			}
		}
	}
	if r.l4 != nil {
		if w, ok := r.l4.fill(addr, v.seg, v.dirty); ok && w.dirty {
			r.mem.MemWrite(w.block<<r.l4.shift, w.seg)
		}
	} else if v.dirty {
		r.mem.MemWrite(addr, v.seg)
	}
}
