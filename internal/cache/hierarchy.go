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

// Hierarchy is a functional multi-level cache simulator. It is not safe for
// concurrent use; multi-threaded execution is modeled by the recording,
// whose accesses arrive already interleaved across hardware threads.
type Hierarchy struct {
	cfg HierarchyConfig

	l1i, l1d, l2 []*Cache
	l2i          []*Cache // only with SplitL2
	l3           *Cache
	l4           *Cache

	// Thread-indexed routing tables, precomputed at construction so the hot
	// kernels replace the per-access core division (coreFor) with one load:
	// dataL1/dataL2 route loads and stores, fetchL1/fetchL2 route
	// instruction fetches (fetchL2 differs from dataL2 only under SplitL2).
	dataL1, dataL2   [256]*Cache
	fetchL1, fetchL2 [256]*Cache
	// l1Shift is the shared L1 block shift (L1-I and L1-D block sizes are
	// validated equal), hoisted out of the batch loop.
	l1Shift uint

	// MemReads counts demand fetches that reached main memory; MemWrites
	// counts dirty writebacks that reached main memory. Together they are
	// the DRAM traffic the L4 is designed to filter (Figure 13).
	MemReads, MemWrites int64
	// PrefetchFills counts blocks installed by InstallPrefetch;
	// PrefetchMemReads counts the subset that had to read main memory
	// (prefetch bandwidth cost).
	PrefetchFills, PrefetchMemReads int64

	// mem, when non-nil, observes every main-memory transaction.
	mem MemSink

	// Level-predictor state (nil/false without cfg.Predictor). trackFetch
	// is hoisted so the batched kernel pays one predictable branch when the
	// predictor is off; lastFetch[t] is thread t's most recent fetch block,
	// the per-PC stand-in key. memProbes is the number of post-L1 probes a
	// full chain performs on a memory-serviced access (2, or 3 with an L4),
	// precomputed for the probe-skip accounting.
	pred       *levelPredictor
	trackFetch bool
	lastFetch  [256]uint64
	memProbes  int64
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

// SetMemSink attaches a main-memory observer (nil detaches). Attach before
// replay: the sink sees only transactions issued after the call.
func (h *Hierarchy) SetMemSink(ms MemSink) { h.mem = ms }

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

// NewHierarchy builds a hierarchy; it panics on invalid configuration.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg}
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
	if cfg.L4 != nil {
		h.l4 = New(*cfg.L4)
		h.l4.OnEvict = func(l Line) {
			if l.Dirty {
				h.MemWrites++
				if h.mem != nil {
					h.mem.MemWrite(l.BlockAddr<<h.l4.BlockShift(), l.Seg)
				}
			}
		}
	}
	h.l3.OnEvict = h.onL3Evict
	h.l1Shift = h.l1d[0].blockShift
	h.memProbes = 2
	if h.l4 != nil {
		h.memProbes = 3
	}
	if cfg.Predictor != nil {
		pc := cfg.Predictor.withDefaults()
		h.pred = newLevelPredictor(pc)
		h.trackFetch = !pc.IndexBlock
	}
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

// onL3Evict implements inclusion back-invalidation and the L4 victim path.
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
	if h.l4 != nil {
		h.l4.Fill(h.l4.BlockAddr(byteAddr), l.Seg, dirty)
		return // a dirty line now lives in the L4; written back on L4 eviction
	}
	if dirty {
		h.MemWrites++
		if h.mem != nil {
			h.mem.MemWrite(byteAddr, l.Seg)
		}
	}
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
// When levels is non-nil the servicing level of each access is appended to
// it and the extended slice returned (pass a cap-sized slice to avoid
// growth); a nil levels skips that bookkeeping entirely. The batch itself is
// read-only — it may be a zero-copy window of a shared immutable trace.
//
//lint:hot
func (h *Hierarchy) AccessBatch(batch []trace.Access, levels []HitLevel) []HitLevel {
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
		if h.trackFetch && a.Kind == trace.Fetch {
			// The level predictor's "per-PC" key: the most recent
			// instruction-fetch block of this thread stands in for the
			// program counter (the trace carries no PC field).
			h.lastFetch[a.Thread] = first
		}
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
			var lvl HitLevel
			if h.pred == nil {
				lvl = h.missPath(l1, l2, b<<shift, seg, kind)
			} else {
				lvl = h.predictPath(l1, l2, a.Thread, b<<shift, seg, kind)
			}
			if lvl > deepest {
				deepest = lvl
			}
		}
		if levels != nil {
			//lint:ignore hotalloc documented contract: callers pass a cap-sized slice (see doc comment), so append never grows; pinned by the AllocsPerRun oracle
			levels = append(levels, deepest)
		}
	}
	return levels
}

// missPath services an access that already missed (and recorded its miss)
// in l1: it probes L2/L3/L4 in order and performs the fill cascade,
// returning the servicing level. Probes call touch directly and record
// stats inline, skipping the Access wrapper frame per level.
func (h *Hierarchy) missPath(l1, l2 *Cache, byteAddr uint64, seg trace.Segment, kind trace.Kind) HitLevel {
	write := kind == trace.Write
	level := HitL2
	hitL2 := l2.touch(l2.BlockAddr(byteAddr), write)
	l2.Stats.record(seg, kind, hitL2)
	if !hitL2 {
		level = HitL3
		hitL3 := h.l3.touch(h.l3.BlockAddr(byteAddr), write)
		h.l3.Stats.record(seg, kind, hitL3)
		if !hitL3 {
			hitL4 := false
			if h.l4 != nil {
				// Memory-side cache: its lookup proceeds in parallel
				// with memory scheduling (§IV-C); functionally we only
				// need hit/miss.
				hitL4 = h.l4.touch(h.l4.BlockAddr(byteAddr), write)
				h.l4.Stats.record(seg, kind, hitL4)
			}
			if hitL4 {
				level = HitL4
			} else {
				level = HitMemory
				h.MemReads++
				if h.mem != nil {
					//lint:ignore hotalloc memory-model sink: internal/mem's kernels are independently //lint:hot-enforced and AllocsPerRun-pinned
					h.mem.MemRead(byteAddr, seg)
				}
			}
			// Fill the L3 (evictions flow to the L4 victim path). The
			// probe above just established absence, so the fills below
			// take the no-rescan path.
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
// memory bandwidth and can pollute the caches.
func (h *Hierarchy) InstallPrefetch(core int, byteAddr uint64, seg trace.Segment) {
	if core < 0 || core >= h.cfg.Cores {
		return
	}
	l2 := h.l2[core]
	if l2.Contains(l2.BlockAddr(byteAddr)) {
		return
	}
	h.PrefetchFills++
	l3Block := h.l3.BlockAddr(byteAddr)
	inL3 := h.l3.Contains(l3Block)
	inL4 := h.l4 != nil && h.l4.Contains(h.l4.BlockAddr(byteAddr))
	if !inL3 {
		if !inL4 {
			h.PrefetchMemReads++
			h.MemReads++
			if h.mem != nil {
				h.mem.MemRead(byteAddr, seg)
			}
		}
		h.l3.fillAbsent(l3Block, seg, false)
	}
	if own := h.l3.owners; own != nil {
		base := h.l3.setBase(l3Block)
		own[base+h.l3.findWay(base, l3Block)] |= l2.ownerBit
	}
	if ev, ok := l2.fillAbsent(l2.BlockAddr(byteAddr), seg, false); ok && ev.Dirty {
		h.writeback(h.l3, ev.BlockAddr<<l2.BlockShift(), ev.Seg)
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

// L2Stats returns L2 stats summed over cores (both halves when split).
func (h *Hierarchy) L2Stats() AccessStats {
	s := aggregate(h.l2)
	if h.cfg.SplitL2 {
		i := aggregate(h.l2i)
		s.Add(&i)
	}
	return s
}

// L3Stats returns the shared L3's stats.
func (h *Hierarchy) L3Stats() AccessStats { return h.l3.Stats }

// L4Stats returns the L4's stats; it returns a zero value when no L4 is
// configured.
func (h *Hierarchy) L4Stats() AccessStats {
	if h.l4 == nil {
		return AccessStats{}
	}
	return h.l4.Stats
}

// HasL4 reports whether an L4 is configured.
func (h *Hierarchy) HasL4() bool { return h.l4 != nil }

// PredictorStats returns the level predictor's counters; it returns a zero
// value when no predictor is configured.
func (h *Hierarchy) PredictorStats() PredictorStats {
	if h.pred == nil {
		return PredictorStats{}
	}
	return h.pred.Stats
}

// DRAMAccesses returns total main-memory transactions (reads + writebacks).
func (h *Hierarchy) DRAMAccesses() int64 { return h.MemReads + h.MemWrites }

// ResetStats zeroes all statistics while preserving cache contents: used to
// measure steady state after a warmup phase, as the paper's traces capture
// servers already in steady state.
func (h *Hierarchy) ResetStats() {
	for _, group := range [][]*Cache{h.l1i, h.l1d, h.l2, h.l2i} {
		for _, c := range group {
			c.Stats = AccessStats{}
		}
	}
	h.l3.Stats = AccessStats{}
	if h.l4 != nil {
		h.l4.Stats = AccessStats{}
	}
	h.MemReads, h.MemWrites = 0, 0
	h.PrefetchFills, h.PrefetchMemReads = 0, 0
	if h.pred != nil {
		// Keep the trained table (it is cache-like warm state) but zero the
		// counters, like every cache's Stats.
		h.pred.Stats = PredictorStats{}
	}
}
