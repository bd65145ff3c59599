package cache

// Batch-split invariance tests for the replay kernel: how a stream is cut
// into AccessBatch calls — one access at a time (Hierarchy.Access is a
// one-element batch), window-sized, or whole-trace — must not show in the
// outcome: same stats, same HitLevel per access, and bit-identical internal
// cache state (tag/stamp/meta arrays, occupancy, recency clock, line buffer,
// FA list order) regardless of policy, partitioning or batch size.

import (
	"reflect"
	"testing"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// drainBatch runs an entire batched stream through h, consuming each batch
// before the next NextBatch call (the trace.BatchStream lifetime contract).
func drainBatch(h *Hierarchy, bs trace.BatchStream) {
	for {
		b := bs.NextBatch()
		if len(b) == 0 {
			return
		}
		h.AccessBatch(b, nil)
	}
}

// flatRecording builds the flat chunked store over accs, the way a Replayer
// captures it.
func flatRecording(accs []trace.Access) *trace.Shared {
	w := trace.NewSharedWriter()
	for _, a := range accs {
		w.Add(a)
	}
	return w.Finish()
}

// batchEquivTrace generates a seeded access pattern with hot, warm and cold
// regions so the hierarchy sees hits at every level, evictions, dirty
// writebacks, instruction fetches and unaligned multi-block accesses.
func batchEquivTrace(seed uint64, n, threads int) []trace.Access {
	rng := stats.NewRNG(seed)
	accs := make([]trace.Access, 0, n)
	for i := 0; i < n; i++ {
		seg := trace.Segment(rng.Intn(trace.NumSegments))
		kind := trace.Kind(rng.Intn(trace.NumKinds))
		var addr uint64
		switch rng.Intn(4) {
		case 0: // hot: fits L1, mostly hits
			addr = uint64(rng.Intn(1 << 10))
		case 1: // warm: fits L3 but not the private levels
			addr = 1<<20 + uint64(rng.Intn(12<<10))
		case 2: // same-block run: consecutive fetch-style reuse
			addr = 1 << 16
		default: // cold: misses everywhere, forces evictions
			addr = 1<<30 + uint64(rng.Intn(1<<19))
		}
		size := uint16(1 << rng.Intn(7)) // 1..64 B, may straddle blocks
		accs = append(accs, trace.Access{
			Addr: addr, Size: size, Seg: seg, Kind: kind,
			Thread: uint8(rng.Intn(threads)),
		})
	}
	return accs
}

// cacheSnap captures a cache's complete observable and internal state.
type cacheSnap struct {
	Stats  AccessStats
	Tags   []uint64
	Stamps []uint64
	Meta   []uint8
	Occ    []uint16
	Owners []uint8
	Clock  uint64
	Last   uint64
	PSEL   int32
	DB     []uint8
	FAList []Line // fully-associative store in recency order
}

func snapCache(c *Cache) cacheSnap {
	s := cacheSnap{
		Stats: c.Stats,
		Tags:  append([]uint64(nil), c.tags...),
		Occ:   append([]uint16(nil), c.occ...),
		Clock: c.clock,
		Last:  c.lastBlock,
		PSEL:  c.psel,
		DB:    append([]uint8(nil), c.db...),
	}
	s.Stamps = append([]uint64(nil), c.stamps...)
	s.Meta = append([]uint8(nil), c.meta...)
	s.Owners = append([]uint8(nil), c.owners...)
	if c.assoc == 0 {
		for idx := c.faHead; idx >= 0; idx = c.faNodes[idx].next {
			s.FAList = append(s.FAList, c.faNodes[idx].line)
		}
	}
	return s
}

// snapHierarchy captures every cache in the hierarchy plus memory traffic:
// the upper's caches and those of its tail (h.Tail), which must be set.
func snapHierarchy(h *Hierarchy) map[string]any {
	m := map[string]any{
		"MemReads":  h.MemReads,
		"MemWrites": h.MemWrites,
		"PrefFills": h.PrefetchFills,
		"PrefReads": h.PrefetchMemReads,
		"L3":        snapCache(h.l3),
	}
	for i, c := range h.l1i {
		m["L1I"+string(rune('0'+i))] = snapCache(c)
	}
	for i, c := range h.l1d {
		m["L1D"+string(rune('0'+i))] = snapCache(c)
	}
	for i, c := range h.l2 {
		m["L2"+string(rune('0'+i))] = snapCache(c)
	}
	for i, c := range h.l2i {
		m["L2I"+string(rune('0'+i))] = snapCache(c)
	}
	if h.l4 != nil {
		m["L4"] = snapCache(h.l4)
	}
	if h.pred != nil {
		m["Pred"] = map[string]any{
			"Tags":      append([]uint16(nil), h.pred.tags...),
			"Level":     append([]uint8(nil), h.pred.level...),
			"Conf":      append([]uint8(nil), h.pred.conf...),
			"Stats":     h.pred.Stats,
			"Overlay":   [2]predCounts{h.l2Pred, h.l3Pred},
			"LastFetch": h.lastFetch,
		}
	}
	return m
}

// equivConfigs is the hierarchy matrix the batched kernels must match the
// scalar path on: every policy (including the RRIP family and dead-block
// insertion), way-partitioning, a fully-associative level, split L2s, the
// L4 victim cache, and the level predictor in both indexing modes.
func equivConfigs() map[string]HierarchyConfig {
	withPolicy := func(p Policy) HierarchyConfig {
		cfg := tinyHierarchy(2, nil)
		cfg.L1I.Policy, cfg.L1D.Policy, cfg.L2.Policy, cfg.L3.Policy = p, p, p, p
		if p.Stochastic() {
			cfg.L1I.Seed, cfg.L1D.Seed, cfg.L2.Seed, cfg.L3.Seed = 11, 12, 13, 14
		}
		return cfg
	}
	l4 := &Config{Size: 32 << 10, BlockSize: 64, Assoc: 4, Seed: 7}
	cfgs := map[string]HierarchyConfig{
		"lru":    withPolicy(LRU),
		"fifo":   withPolicy(FIFO),
		"random": withPolicy(Random),
		"srrip":  withPolicy(SRRIP),
		"brrip":  withPolicy(BRRIP),
		"drrip":  withPolicy(DRRIP),
		"l4":     tinyHierarchy(2, l4),
	}
	db := withPolicy(SRRIP)
	db.L2.DeadBlock, db.L3.DeadBlock = true, true
	cfgs["srrip+db"] = db
	aw := tinyHierarchy(2, nil)
	aw.L3.AllocWays = 3
	cfgs["allocways"] = aw
	fa := tinyHierarchy(2, nil)
	fa.L3.Assoc = 0 // fully-associative shared L3
	cfgs["fullyassoc"] = fa
	sp := tinyHierarchy(2, l4)
	sp.SplitL2 = true
	cfgs["splitl2"] = sp
	// Level predictor, per-PC keys, with an L4 (jump-to-L4 + bypass paths).
	// A tiny low-confidence table maximizes acted-on predictions — and so
	// mispredict-fallback coverage — on the small equivalence trace.
	pp := tinyHierarchy(2, l4)
	pp.Predictor = &PredictorConfig{TableBits: 8, ConfThreshold: 1, Seed: 5}
	cfgs["pred"] = pp
	// Block-indexed predictor without an L4 (jump-to-L3 + L3-bottom bypass),
	// stacked on an RRIP L3 so the paths compose.
	pb := withPolicy(SRRIP)
	pb.Predictor = &PredictorConfig{TableBits: 8, ConfThreshold: 1, Seed: 9, IndexBlock: true}
	cfgs["predblock"] = pb
	return cfgs
}

// TestBatchedHierarchyEquivalence drains the same trace through the scalar
// path and through AccessBatch at several batch sizes, requiring identical
// HitLevel sequences and bit-identical end state.
func TestBatchedHierarchyEquivalence(t *testing.T) {
	tr := batchEquivTrace(42, 20000, 4)
	for name, cfg := range equivConfigs() {
		t.Run(name, func(t *testing.T) {
			ref := NewHierarchy(cfg)
			refLevels := make([]HitLevel, 0, len(tr))
			for _, a := range tr {
				refLevels = append(refLevels, ref.Access(a))
			}
			refSnap := snapHierarchy(ref)

			for _, bs := range []int{1, 3, 64, 1000, len(tr)} {
				h := NewHierarchy(cfg)
				levels := make([]HitLevel, 0, len(tr))
				for lo := 0; lo < len(tr); lo += bs {
					hi := lo + bs
					if hi > len(tr) {
						hi = len(tr)
					}
					levels = h.AccessBatch(tr[lo:hi], levels)
				}
				if !reflect.DeepEqual(levels, refLevels) {
					t.Fatalf("batch size %d: HitLevel sequence diverges from scalar", bs)
				}
				if got := snapHierarchy(h); !reflect.DeepEqual(got, refSnap) {
					t.Fatalf("batch size %d: internal state diverges from scalar", bs)
				}
			}
		})
	}
}
