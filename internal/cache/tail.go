package cache

import (
	"searchmem/internal/trace"
)

// The hierarchy is split at the L3's miss/victim port. Everything above it —
// the private L1s and L2s and the shared L3 — is the upper (Hierarchy's
// AccessBatch); everything below it — the optional L4, main memory and its
// MemSink, the memory-traffic counters and the level predictor — is a Tail.
// Nothing below the L3 feeds back up: a miss fills the L3 the same way
// whether the L4 or memory serviced it, an L3 victim is back-invalidated
// before it is handed down, a prefetch reads the L4 only to count memory
// reads, and the level predictor never writes cache state. So the upper can
// log what crosses the port during a batch and any number of tails can
// consume that log afterwards, each ending in exactly the state it would
// have reached wired inline (FuzzHierarchyMatchesReference). That is the
// paper's §III method made structural: one trace through the upper levels,
// every below-L3 design point from its post-L3 stream (DESIGN.md §11).

// Port is the post-L3 event log of one upper call (an AccessBatch or an
// InstallPrefetch): the demand misses, victims and prefetch fills that left
// the L3, in the order the inline hierarchy handed them down, and — when the
// upper keys L1 misses for a level predictor — one record per L1 miss.
type Port struct {
	events []portEvent
	misses []l1Miss
}

// reset empties the log, keeping its capacity.
func (p *Port) reset() {
	p.events = p.events[:0]
	p.misses = p.misses[:0]
}

// Port event kinds, in portEvent.op's low two bits. A demand miss carries its
// access kind in the next two bits, a victim its dirty bit.
const (
	opDemand   = 0
	opVictim   = 1
	opPrefetch = 2
	opMask     = 3
)

// portEvent is one crossing of the L3's lower port. addr is a byte address;
// idx is the batch index of the access a demand miss belongs to (it resolves
// the levels an AccessBatch caller asked for and is not kept by a Stream).
type portEvent struct {
	addr uint64
	idx  uint32
	seg  trace.Segment
	op   uint8
}

// l1Miss is one L1 miss as the level predictor sees it: both keys it may be
// indexed by (the thread's last fetch block refined by the segment, and the
// missing block), and the level the upper serviced it at — HitL2, HitL3, or
// HitMemory for "below the L3", which the tail resolves with its own L4.
// idx is the access's batch index, used by the upper to fill in pc.
type l1Miss struct {
	pc, block uint64
	idx       uint32
	level     HitLevel
}

// predCounts is the level predictor's overlay on one shared level: the
// AccessStats fields PredHits, PredMispredicts and PredSkips, kept per tail
// because the L2s and the L3 they describe belong to the upper.
type predCounts struct{ hits, mispredicts, skips int64 }

// addTo adds the overlay into s.
func (c predCounts) addTo(s *AccessStats) {
	s.PredHits += c.hits
	s.PredMispredicts += c.mispredicts
	s.PredSkips += c.skips
}

// Tail is the below-L3 half of a hierarchy: the optional victim L4, the main
// memory behind it, and the optional level predictor. It consumes an upper's
// Port (Drain) and owns every counter below the port. A Tail is not safe for
// concurrent use, but tails never share state, so different tails may drain
// one Port concurrently.
type Tail struct {
	l4 *Cache

	// mem, when non-nil, observes every main-memory transaction.
	mem MemSink

	// MemReads counts demand fetches that reached main memory; MemWrites
	// counts dirty writebacks that reached main memory. Together they are
	// the DRAM traffic the L4 is designed to filter (Figure 13).
	MemReads, MemWrites int64
	// PrefetchMemReads counts the prefetch fills that had to read main
	// memory (prefetch bandwidth cost).
	PrefetchMemReads int64

	// Level-predictor state (nil without a predictor). indexBlock selects
	// block keys over per-PC keys; memProbes is the number of post-L1 probes
	// a full chain performs on a memory-serviced access (2, or 3 with an
	// L4); l2Pred and l3Pred are the overlay counters of the upper's levels;
	// below holds the current drain's demand outcomes, one per demand event,
	// for the L1-miss records that went below the L3.
	pred           *levelPredictor
	indexBlock     bool
	memProbes      int64
	l2Pred, l3Pred predCounts
	below          []HitLevel
}

// NewTail builds the tail cfg describes: its L4 (cfg.L4) and level predictor
// (cfg.Predictor), to sit below an upper built from the same cfg. It panics
// on an invalid configuration.
func NewTail(cfg HierarchyConfig) *Tail {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &Tail{memProbes: 2}
	if cfg.L4 != nil {
		t.l4 = New(*cfg.L4)
		t.l4.OnEvict = func(l Line) {
			if l.Dirty {
				t.MemWrites++
				if t.mem != nil {
					t.mem.MemWrite(l.BlockAddr<<t.l4.BlockShift(), l.Seg)
				}
			}
		}
		t.memProbes = 3
	}
	if cfg.Predictor != nil {
		pc := cfg.Predictor.withDefaults()
		t.pred = newLevelPredictor(pc)
		t.indexBlock = pc.IndexBlock
	}
	return t
}

// SetMemSink attaches a main-memory observer (nil detaches). Attach before
// replay: the sink sees only transactions drained after the call.
func (t *Tail) SetMemSink(ms MemSink) { t.mem = ms }

// HasL4 reports whether an L4 is configured.
func (t *Tail) HasL4() bool { return t.l4 != nil }

// L4Stats returns the L4's stats; it returns a zero value when no L4 is
// configured.
func (t *Tail) L4Stats() AccessStats {
	if t.l4 == nil {
		return AccessStats{}
	}
	return t.l4.Stats
}

// PredictorStats returns the level predictor's counters; it returns a zero
// value when no predictor is configured.
func (t *Tail) PredictorStats() PredictorStats {
	if t.pred == nil {
		return PredictorStats{}
	}
	return t.pred.Stats
}

// DRAMAccesses returns total main-memory transactions (reads + writebacks).
func (t *Tail) DRAMAccesses() int64 { return t.MemReads + t.MemWrites }

// Overlay returns u with this tail's predictor overlay (PredHits,
// PredMispredicts, PredSkips) added to its L2 and L3 stats: the shared
// levels' stats as this tail's hierarchy reports them.
func (t *Tail) Overlay(u UpperStats) UpperStats {
	t.l2Pred.addTo(&u.L2)
	t.l3Pred.addTo(&u.L3)
	return u
}

// ResetStats zeroes every counter below the port while keeping the L4's
// contents and the predictor's trained table (warm state, like the caches').
func (t *Tail) ResetStats() {
	if t.l4 != nil {
		t.l4.Stats = AccessStats{}
	}
	t.MemReads, t.MemWrites, t.PrefetchMemReads = 0, 0, 0
	if t.pred != nil {
		t.pred.Stats = PredictorStats{}
	}
	t.l2Pred, t.l3Pred = predCounts{}, predCounts{}
}

// Drain consumes one Port: every post-L3 event in order, then the L1-miss
// records through the level predictor. levels, when non-nil, is the upper's
// per-access levels for the port's batch (HitMemory standing for "below the
// L3"); Drain replaces each such entry with the deepest level its demand
// misses reached in this tail, HitL4 or HitMemory.
func (t *Tail) Drain(p *Port, levels []HitLevel) {
	prev := -1
	for _, e := range p.events {
		switch e.op & opMask {
		case opDemand:
			lvl := t.demand(e.addr, e.seg, trace.Kind(e.op>>2))
			if t.pred != nil {
				t.below = append(t.below, lvl)
			}
			if levels != nil {
				// An access's demand misses are adjacent; the first replaces the
				// upper's placeholder and the rest can only deepen it.
				if i := int(e.idx); i != prev {
					levels[i], prev = lvl, i
				} else if lvl > levels[i] {
					levels[i] = lvl
				}
			}
		case opVictim:
			t.victim(e.addr, e.seg, e.op>>2 != 0)
		default:
			t.prefetch(e.addr, e.seg)
		}
	}
	if t.pred != nil {
		t.predict(p.misses)
	}
}

// demand services an L3 demand miss: the memory-side L4's lookup proceeds
// in parallel with memory scheduling (§IV-C), so functionally only hit or
// miss matters; a miss reads main memory.
func (t *Tail) demand(addr uint64, seg trace.Segment, kind trace.Kind) HitLevel {
	if t.l4 != nil {
		hit := t.l4.touch(t.l4.BlockAddr(addr), kind == trace.Write)
		t.l4.Stats.record(seg, kind, hit)
		if hit {
			return HitL4
		}
	}
	t.MemReads++
	if t.mem != nil {
		t.mem.MemRead(addr, seg)
	}
	return HitMemory
}

// victim lands an L3 victim: in the L4 when there is one (a dirty line is
// written back on its L4 eviction), otherwise in memory if dirty.
func (t *Tail) victim(addr uint64, seg trace.Segment, dirty bool) {
	if t.l4 != nil {
		t.l4.Fill(t.l4.BlockAddr(addr), seg, dirty)
		return
	}
	if dirty {
		t.MemWrites++
		if t.mem != nil {
			t.mem.MemWrite(addr, seg)
		}
	}
}

// prefetch accounts a prefetch fill that missed the L3: it reads memory
// unless the L4 holds the block (checked before the fill's own L3 victim
// reaches the L4, which is the next event).
func (t *Tail) prefetch(addr uint64, seg trace.Segment) {
	if t.l4 != nil && t.l4.Contains(t.l4.BlockAddr(addr)) {
		return
	}
	t.PrefetchMemReads++
	t.MemReads++
	if t.mem != nil {
		t.mem.MemRead(addr, seg)
	}
}
