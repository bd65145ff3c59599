package cache

import (
	"fmt"

	"searchmem/internal/trace"
)

// HierarchyConfig describes a full multi-core cache hierarchy: per-core
// private L1-I/L1-D/L2 caches, a shared L3, and an optional shared L4
// operating as a memory-side victim cache for L3 evictions (§IV-C).
type HierarchyConfig struct {
	// Cores is the number of cores; each gets private L1/L2 caches.
	Cores int
	// ThreadsPerCore maps trace thread ids onto cores: thread t runs on
	// core t/ThreadsPerCore (SMT threads share their core's caches).
	ThreadsPerCore int
	// L1I, L1D and L2 are per-core cache templates.
	L1I, L1D, L2 Config
	// SplitL2 gives each core separate L2 instruction and data caches of
	// half the unified capacity each (the §V "Split I/D L2 caches"
	// what-if). The L2 template's capacity is divided; all other
	// parameters carry over.
	SplitL2 bool
	// L3 is the shared last-level SRAM cache.
	L3 Config
	// L3Inclusive enables inclusion: L3 evictions back-invalidate copies
	// in the private caches (the paper notes this effect for PLT1's L3).
	L3Inclusive bool
	// L4, when non-nil, adds the paper's eDRAM L4. It must use the same
	// block size as the L3 (the paper keeps them equal to simplify the
	// victim path).
	L4 *Config
	// Predictor, when non-nil, attaches a cache-level predictor to the
	// post-L1 path: confident predictions jump straight to the predicted
	// level (or bypass to memory) and verify there, skipping the
	// intermediate serial probes. Functional behaviour — contents, hit/
	// miss statistics, memory traffic — is unchanged; the predictor
	// overlays probe accounting (Jalili & Erez, see DESIGN.md §11).
	Predictor *PredictorConfig
}

// Validate reports whether the hierarchy configuration is consistent.
func (hc HierarchyConfig) Validate() error {
	if hc.Cores <= 0 {
		return fmt.Errorf("hierarchy: cores must be positive, got %d", hc.Cores)
	}
	if hc.ThreadsPerCore <= 0 {
		return fmt.Errorf("hierarchy: threads per core must be positive, got %d", hc.ThreadsPerCore)
	}
	for _, cfg := range []Config{hc.L1I, hc.L1D, hc.L2, hc.L3} {
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	if hc.L1I.BlockSize != hc.L1D.BlockSize {
		return fmt.Errorf("hierarchy: L1-I and L1-D block sizes differ")
	}
	if hc.L2.BlockSize < hc.L1D.BlockSize || hc.L3.BlockSize < hc.L2.BlockSize {
		return fmt.Errorf("hierarchy: block sizes must not shrink down the hierarchy")
	}
	if hc.L4 != nil {
		if err := hc.L4.Validate(); err != nil {
			return err
		}
		if hc.L4.BlockSize != hc.L3.BlockSize {
			return fmt.Errorf("hierarchy: L4 block size %d must equal L3 block size %d",
				hc.L4.BlockSize, hc.L3.BlockSize)
		}
	}
	if hc.Predictor != nil {
		if err := hc.Predictor.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Hierarchy is a functional multi-level cache simulator: the L1–L3 upper
// (this type's own fields and AccessBatch) over the L3's miss/victim port,
// and, embedded, the Tail that consumes what crosses it (tail.go). A
// hierarchy from NewHierarchy has exactly one tail and drains into it at the
// end of every call, so its counters and levels read as one machine's; one
// from NewUpper has none and leaves each call's Port for the caller to hand
// to as many tails as share this upper. It is not safe for concurrent use;
// multi-threaded execution is modeled by the recording, whose accesses
// arrive already interleaved across hardware threads.
type Hierarchy struct {
	cfg HierarchyConfig

	l1i, l1d, l2 []*Cache
	l2i          []*Cache // only with SplitL2
	l3           *Cache

	// Thread-indexed routing tables, precomputed at construction so the hot
	// kernels replace the per-access core division (coreFor) with one load:
	// dataL1/dataL2 route loads and stores, fetchL1/fetchL2 route
	// instruction fetches (fetchL2 differs from dataL2 only under SplitL2).
	dataL1, dataL2   [256]*Cache
	fetchL1, fetchL2 [256]*Cache
	// l1Shift is the shared L1 block shift (L1-I and L1-D block sizes are
	// validated equal), hoisted out of the batch loop.
	l1Shift uint

	// PrefetchFills counts blocks installed by InstallPrefetch (the subset
	// that read main memory is the tail's PrefetchMemReads).
	PrefetchFills int64

	// port logs what the current call hands below the L3. keyMisses adds one
	// record per L1 miss for a level predictor in some tail; lastFetch[t] is
	// thread t's most recent fetch block, the per-PC stand-in key those
	// records carry (keyL1Misses).
	port      Port
	keyMisses bool
	lastFetch [256]uint64

	// Tail is the hierarchy's own below-L3 half (nil for NewUpper): its L4,
	// memory sink, memory counters and level predictor, promoted so
	// h.MemReads, h.L4Stats() and h.SetMemSink read as they always have.
	*Tail
}

// MemSink observes every main-memory transaction the hierarchy issues:
// demand and prefetch fetches that missed all cache levels (MemRead) and
// dirty writebacks that fell out of the bottom of the hierarchy (MemWrite).
// It is how a main-memory timing model (internal/mem's tiered system)
// attaches below the functional simulator without the cache package
// depending on it. Calls are made on the hierarchy's replay goroutine in
// trace order, so a sink advancing virtual time stays deterministic.
type MemSink interface {
	MemRead(addr uint64, seg trace.Segment)
	MemWrite(addr uint64, seg trace.Segment)
}

// HitLevel identifies the hierarchy level that serviced an access.
type HitLevel uint8

const (
	// HitL1 through HitMemory name the servicing level in depth order.
	HitL1 HitLevel = iota + 1
	HitL2
	HitL3
	HitL4
	HitMemory
)

// String implements fmt.Stringer.
func (l HitLevel) String() string {
	switch l {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitL3:
		return "L3"
	case HitL4:
		return "L4"
	case HitMemory:
		return "memory"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// NewHierarchy builds a hierarchy with its one tail; it panics on invalid
// configuration.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := NewUpper(cfg, cfg.Predictor != nil)
	h.Tail = NewTail(cfg)
	return h
}

// NewUpper builds the L1–L3 of cfg with no tail: cfg.L4 and cfg.Predictor
// belong to tails (NewTail) and are not built here. Each AccessBatch or
// InstallPrefetch leaves what it handed below the L3 in Port until the next
// call. keyMisses logs one L1-miss record per L1 miss, which a tail with a
// level predictor needs. It panics on invalid configuration.
func NewUpper(cfg HierarchyConfig, keyMisses bool) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg, keyMisses: keyMisses}
	for c := 0; c < cfg.Cores; c++ {
		mk := func(t Config, kind string) *Cache {
			t.Name = fmt.Sprintf("%s[core%d]", kind, c)
			t.Seed ^= uint64(c+1) * 0x9e3779b9
			pc := New(t)
			pc.ownerBit = 1 << (c & 7)
			return pc
		}
		h.l1i = append(h.l1i, mk(cfg.L1I, "L1-I"))
		h.l1d = append(h.l1d, mk(cfg.L1D, "L1-D"))
		if cfg.SplitL2 {
			half := cfg.L2
			half.Size /= 2
			blocks := half.Size / int64(half.BlockSize)
			if half.Assoc > 0 {
				blocks -= blocks % int64(half.Assoc)
				half.Size = blocks * int64(half.BlockSize)
			}
			h.l2 = append(h.l2, mk(half, "L2-D"))
			h.l2i = append(h.l2i, mk(half, "L2-I"))
		} else {
			h.l2 = append(h.l2, mk(cfg.L2, "L2"))
		}
	}
	h.l3 = New(cfg.L3)
	if cfg.L3Inclusive && h.l3.assoc != 0 {
		// Core-valid bits: a private cache of core c holds a block only if the
		// L3 holds its covering line with bit c&7 set — every private fill
		// goes through missPath or InstallPrefetch on that core, which set it,
		// and it is cleared only when the line leaves the L3 — so onL3Evict
		// probes only the cores whose bit is set. Above 8 cores bits alias to
		// a superset, which is still exact: invalidating an absent block does
		// nothing.
		h.l3.owners = make([]uint8, len(h.l3.tags))
	}
	h.l3.OnEvict = h.onL3Evict
	h.l1Shift = h.l1d[0].blockShift
	for t := 0; t < 256; t++ {
		core := h.coreFor(uint8(t))
		h.dataL1[t] = h.l1d[core]
		h.fetchL1[t] = h.l1i[core]
		h.dataL2[t] = h.l2[core]
		if cfg.SplitL2 {
			h.fetchL2[t] = h.l2i[core]
		} else {
			h.fetchL2[t] = h.l2[core]
		}
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Port returns the post-L3 events of the last AccessBatch or InstallPrefetch
// call, valid until the next one. A hierarchy with a tail has drained them
// already; an upper's caller hands them to its tails with Tail.Drain.
func (h *Hierarchy) Port() *Port { return &h.port }

// onL3Evict implements inclusion back-invalidation, then hands the victim —
// clean or dirty, since the L4 keeps clean victims too — to the port.
func (h *Hierarchy) onL3Evict(l Line) {
	dirty := l.Dirty
	byteAddr := l.BlockAddr << h.l3.BlockShift()
	if h.cfg.L3Inclusive {
		// Invalidate every covered upper-level block of every core that
		// can hold one; fold any dirty upper copy into the evicted line so
		// the data is not lost.
		span := int64(h.cfg.L3.BlockSize)
		for c := 0; c < h.cfg.Cores; c++ {
			if l.Owners>>(c&7)&1 == 0 {
				continue
			}
			dirty = h.backInvalidate(h.l1i[c], byteAddr, span) || dirty
			dirty = h.backInvalidate(h.l1d[c], byteAddr, span) || dirty
			dirty = h.backInvalidate(h.l2[c], byteAddr, span) || dirty
			if h.cfg.SplitL2 {
				dirty = h.backInvalidate(h.l2i[c], byteAddr, span) || dirty
			}
		}
	}
	op := uint8(opVictim)
	if dirty {
		op |= 1 << 2
	}
	h.port.events = append(h.port.events, portEvent{addr: byteAddr, seg: l.Seg, op: op})
}

// backInvalidate removes every block of c covered by [byteAddr,
// byteAddr+span) and reports whether any removed line was dirty.
func (h *Hierarchy) backInvalidate(c *Cache, byteAddr uint64, span int64) bool {
	dirty := false
	step := uint64(1) << c.blockShift
	for off := uint64(0); off < uint64(span); off += step {
		if line, present := c.Invalidate(c.BlockAddr(byteAddr + off)); present {
			c.Stats.BackInvalidations++
			dirty = dirty || line.Dirty
		}
	}
	return dirty
}

// coreFor maps a hardware thread to its core.
func (h *Hierarchy) coreFor(thread uint8) int {
	return int(thread) / h.cfg.ThreadsPerCore % h.cfg.Cores
}

// Access runs one trace access through the hierarchy and returns the
// deepest level that had to service it: AccessBatch over a one-element
// batch.
func (h *Hierarchy) Access(a trace.Access) HitLevel {
	batch := [1]trace.Access{a}
	var level [1]HitLevel
	return h.AccessBatch(batch[:], level[:0])[0]
}

// AccessBatch runs every access of batch through the hierarchy — the one
// replay kernel. Accesses that span multiple L1 blocks are split (each
// covered block is one probe, matching a banked cache servicing an unaligned
// reference). How a stream is cut into batches never shows in the outcome
// (same probe order, stats, fills and evictions for any split); batching
// hoists the block shift and the thread-to-cache routing out of the loop and
// inlines the L1 probe over the SoA tag array, so the dominant L1-hit case
// costs a table load, one set scan, and two counter increments.
//
// The loop runs the L1–L3 and logs what crosses the L3's lower port (Port);
// a hierarchy with a tail then drains the log into it, so its levels and
// counters are final when AccessBatch returns. When levels is non-nil the
// servicing level of each access is appended to it and the extended slice
// returned (pass a cap-sized slice to avoid growth); a nil levels skips that
// bookkeeping entirely. An upper without a tail reports HitMemory for "below
// the L3", which Tail.Drain resolves. The batch itself is read-only — it may
// be a zero-copy window of a shared immutable trace.
func (h *Hierarchy) AccessBatch(batch []trace.Access, levels []HitLevel) []HitLevel {
	h.port.reset()
	start := len(levels)
	shift := h.l1Shift
	n := len(batch)
	for i := 0; i < n; i++ {
		// Value copy: loading fields through &batch[i] would force the
		// compiler to re-read them after every store to cache metadata
		// (conservative aliasing); a local copy keeps them in registers.
		a := batch[i]
		var l1, l2 *Cache
		if a.Kind == trace.Fetch {
			l1, l2 = h.fetchL1[a.Thread], h.fetchL2[a.Thread]
		} else {
			l1, l2 = h.dataL1[a.Thread], h.dataL2[a.Thread]
		}
		size := uint64(a.Size)
		if size == 0 {
			size = 1
		}
		first := a.Addr >> shift
		last := (a.Addr + size - 1) >> shift
		// Mask/clamp the array indices once so every stats increment below
		// is bounds-check free (generators only emit in-range values; the
		// clamp branch never fires and predicts perfectly, unlike a mod).
		seg, kind := a.Seg&3, a.Kind
		if kind >= trace.NumKinds {
			kind = 0
		}
		deepest := HitL1
		for b := first; b <= last; b++ {
			// Inline L1 probe (the set-associative fast path; fully-
			// associative L1s take the generic method). The line-buffer
			// check first: fetch runs and stack bursts reference the same
			// block back-to-back, skipping the set scan entirely.
			hit := false
			if b == l1.lastBlock {
				idx := l1.lastIdx
				if kind == trace.Write {
					l1.meta[idx] |= metaDirty
				}
				l1.promote(int(idx))
				hit = true
			} else if l1.assoc != 0 {
				base := l1.setBase(b)
				tags := l1.tags[base : base+l1.assoc]
				for w := range tags {
					if tags[w] == b {
						idx := base + w
						if kind == trace.Write {
							l1.meta[idx] |= metaDirty
						}
						l1.promote(idx)
						l1.lastBlock, l1.lastIdx = b, int32(idx)
						hit = true
						break
					}
				}
			} else {
				hit = l1.touch(b, kind == trace.Write)
			}
			if hit {
				l1.Stats.Hits[seg][kind]++
				continue
			}
			l1.Stats.Misses[seg][kind]++
			lvl := h.missPath(l1, l2, b<<shift, seg, kind, uint32(i))
			if h.keyMisses {
				h.port.misses = append(h.port.misses, l1Miss{block: b, idx: uint32(i), level: lvl})
			}
			if lvl > deepest {
				deepest = lvl
			}
		}
		if levels != nil {
			levels = append(levels, deepest)
		}
	}
	if h.keyMisses {
		h.keyL1Misses(batch)
	}
	if h.Tail != nil {
		h.Tail.Drain(&h.port, levels[start:])
	}
	return levels
}

// keyL1Misses fills in the per-PC key of this batch's L1-miss records: the
// thread's most recent instruction-fetch block (the trace carries no program
// counter, so the code that issued the access stands in for it), refined by
// the target segment (a 64 B code block holds ~16 instructions whose loads
// can have very different destinies — a hot scoring structure vs. a cold
// shard posting). An access that is itself a fetch keys its own block.
func (h *Hierarchy) keyL1Misses(batch []trace.Access) {
	misses := h.port.misses
	for i := range batch {
		a := &batch[i]
		if a.Kind == trace.Fetch {
			h.lastFetch[a.Thread] = a.Addr >> h.l1Shift
		}
		for len(misses) > 0 && misses[0].idx == uint32(i) {
			misses[0].pc = h.lastFetch[a.Thread]<<2 | uint64(a.Seg)&3
			misses = misses[1:]
		}
	}
}

// missPath services an access that already missed (and recorded its miss)
// in l1: it probes L2 and L3 in order and performs the fill cascade,
// returning the servicing level — HitMemory when the block came from below
// the L3, where the demand miss is logged for the tail before the L3 fill
// (whose victim, if any, is logged after it). idx is the access's batch
// index. Probes call touch directly and record stats inline, skipping the
// Access wrapper frame per level.
func (h *Hierarchy) missPath(l1, l2 *Cache, byteAddr uint64, seg trace.Segment, kind trace.Kind, idx uint32) HitLevel {
	write := kind == trace.Write
	level := HitL2
	hitL2 := l2.touch(l2.BlockAddr(byteAddr), write)
	l2.Stats.record(seg, kind, hitL2)
	if !hitL2 {
		level = HitL3
		hitL3 := h.l3.touch(h.l3.BlockAddr(byteAddr), write)
		h.l3.Stats.record(seg, kind, hitL3)
		if !hitL3 {
			level = HitMemory
			h.port.events = append(h.port.events, portEvent{addr: byteAddr, idx: idx, seg: seg, op: opDemand | uint8(kind)<<2})
			// Fill the L3 (evictions flow to the port). The probe above just
			// established absence, so the fills below take the no-rescan path.
			h.l3.fillAbsent(h.l3.BlockAddr(byteAddr), seg, false)
		}
		if own := h.l3.owners; own != nil {
			// The hit or the fill above left the line in the L3's line buffer.
			own[h.l3.lastIdx] |= l2.ownerBit
		}
		// Fill the L2; dirty victims write back into the L3.
		if ev, ok := l2.fillAbsent(l2.BlockAddr(byteAddr), seg, false); ok && ev.Dirty {
			h.writeback(h.l3, ev.BlockAddr<<l2.BlockShift(), ev.Seg)
		}
	}
	// Fill the L1; dirty victims write back into the L2.
	if ev, ok := l1.fillAbsent(l1.BlockAddr(byteAddr), seg, kind == trace.Write); ok && ev.Dirty {
		h.writeback(l2, ev.BlockAddr<<l1.BlockShift(), ev.Seg)
	}
	return level
}

// InstallPrefetch brings a block into core's L2 (and the shared L3) without
// touching demand statistics. It models a hardware prefetcher's fill: useful
// prefetches convert later demand misses into hits; useless ones cost
// memory bandwidth and can pollute the caches. A block that misses the L3 is
// logged to the port before the L3 fill, so the tail checks its L4 for it
// before that fill's victim arrives; a hierarchy with a tail drains it.
func (h *Hierarchy) InstallPrefetch(core int, byteAddr uint64, seg trace.Segment) {
	h.port.reset()
	if core < 0 || core >= h.cfg.Cores {
		return
	}
	l2 := h.l2[core]
	if l2.Contains(l2.BlockAddr(byteAddr)) {
		return
	}
	h.PrefetchFills++
	l3Block := h.l3.BlockAddr(byteAddr)
	if !h.l3.Contains(l3Block) {
		h.port.events = append(h.port.events, portEvent{addr: byteAddr, seg: seg, op: opPrefetch})
		h.l3.fillAbsent(l3Block, seg, false)
	}
	if own := h.l3.owners; own != nil {
		base := h.l3.setBase(l3Block)
		own[base+h.l3.findWay(base, l3Block)] |= l2.ownerBit
	}
	if ev, ok := l2.fillAbsent(l2.BlockAddr(byteAddr), seg, false); ok && ev.Dirty {
		h.writeback(h.l3, ev.BlockAddr<<l2.BlockShift(), ev.Seg)
	}
	if h.Tail != nil {
		h.Tail.Drain(&h.port, nil)
	}
}

// writeback lands a dirty block on lower: marking an existing line dirty, or
// installing it as a writeback fill (which may cascade its own eviction).
func (h *Hierarchy) writeback(lower *Cache, byteAddr uint64, seg trace.Segment) {
	block := lower.BlockAddr(byteAddr)
	if lower.MarkDirty(block) {
		return
	}
	lower.Stats.WritebackFills++
	lower.fillAbsent(block, seg, true)
}

// aggregate sums stats across a slice of per-core caches.
func aggregate(caches []*Cache) AccessStats {
	var total AccessStats
	for _, c := range caches {
		total.Add(&c.Stats)
	}
	return total
}

// L1IStats returns instruction-cache stats summed over cores.
func (h *Hierarchy) L1IStats() AccessStats { return aggregate(h.l1i) }

// L1DStats returns data-cache stats summed over cores.
func (h *Hierarchy) L1DStats() AccessStats { return aggregate(h.l1d) }

// L1Stats returns combined L1 stats (I + D) summed over cores, the "L1"
// level of Figure 6a.
func (h *Hierarchy) L1Stats() AccessStats {
	s := h.L1IStats()
	d := h.L1DStats()
	s.Add(&d)
	return s
}

// L2Stats returns L2 stats summed over cores (both halves when split), with
// the tail's level-predictor overlay.
func (h *Hierarchy) L2Stats() AccessStats { return h.overlaid().L2 }

// L3Stats returns the shared L3's stats, with the tail's level-predictor
// overlay.
func (h *Hierarchy) L3Stats() AccessStats { return h.overlaid().L3 }

// overlaid is UpperStats with the hierarchy's own tail's overlay, if any.
func (h *Hierarchy) overlaid() UpperStats {
	u := h.UpperStats()
	if h.Tail != nil {
		u = h.Tail.Overlay(u)
	}
	return u
}

// UpperStats is a snapshot of the upper's counters: everything a group of
// tails under one upper shares.
type UpperStats struct {
	// L1I, L1D and L2 are summed over cores (L2 over both halves when split).
	L1I, L1D, L2, L3 AccessStats
	PrefetchFills    int64
}

// UpperStats returns the L1–L3 counters as the upper measured them, without
// any tail's predictor overlay.
func (h *Hierarchy) UpperStats() UpperStats {
	u := UpperStats{L1I: h.L1IStats(), L1D: h.L1DStats(), L2: aggregate(h.l2), L3: h.l3.Stats, PrefetchFills: h.PrefetchFills}
	if h.cfg.SplitL2 {
		i := aggregate(h.l2i)
		u.L2.Add(&i)
	}
	return u
}

// ResetStats zeroes all statistics while preserving cache contents: used to
// measure steady state after a warmup phase, as the paper's traces capture
// servers already in steady state. The hierarchy's own tail is reset too;
// an upper's caller resets the tails it drains.
func (h *Hierarchy) ResetStats() {
	for _, group := range [][]*Cache{h.l1i, h.l1d, h.l2, h.l2i} {
		for _, c := range group {
			c.Stats = AccessStats{}
		}
	}
	h.l3.Stats = AccessStats{}
	h.PrefetchFills = 0
	if h.Tail != nil {
		h.Tail.ResetStats()
	}
}
