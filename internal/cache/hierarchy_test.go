package cache

import (
	"testing"
	"testing/quick"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// tinyHierarchy returns a small, fast hierarchy for tests.
func tinyHierarchy(cores int, l4 *Config) HierarchyConfig {
	return HierarchyConfig{
		Cores:          cores,
		ThreadsPerCore: 1,
		L1I:            Config{Size: 1 << 10, BlockSize: 64, Assoc: 2},
		L1D:            Config{Size: 1 << 10, BlockSize: 64, Assoc: 2},
		L2:             Config{Size: 4 << 10, BlockSize: 64, Assoc: 4},
		L3:             Config{Size: 16 << 10, BlockSize: 64, Assoc: 8},
		L3Inclusive:    true,
		L4:             l4,
	}
}

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

func TestHierarchyValidate(t *testing.T) {
	bad := []HierarchyConfig{
		{},
		{Cores: 1}, // missing thread count and caches
		func() HierarchyConfig {
			h := tinyHierarchy(1, nil)
			h.L1I.BlockSize = 128 // differs from L1D
			h.L1I.Size = 2 << 10
			return h
		}(),
		func() HierarchyConfig {
			h := tinyHierarchy(1, nil)
			h.L3.BlockSize = 32 // shrinks down the hierarchy
			return h
		}(),
		func() HierarchyConfig {
			h := tinyHierarchy(1, nil)
			h.L4 = &Config{Size: 64 << 10, BlockSize: 128, Assoc: 1}
			return h
		}(),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid hierarchy accepted", i)
		}
	}
	if err := tinyHierarchy(2, &Config{Size: 64 << 10, BlockSize: 64, Assoc: 1}).Validate(); err != nil {
		t.Errorf("valid hierarchy rejected: %v", err)
	}
}

func TestHierarchyBasicFlow(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(1, nil))
	a := trace.Access{Addr: 0x1000, Size: 8, Seg: trace.Heap, Kind: trace.Read}
	h.Access(a)
	// First access misses everywhere and reads memory.
	if h.MemReads != 1 {
		t.Fatalf("MemReads = %d, want 1", h.MemReads)
	}
	if h.L1DStats().TotalMisses() != 1 || h.L2Stats().TotalMisses() != 1 || h.L3Stats().TotalMisses() != 1 {
		t.Fatal("first access should miss at all levels")
	}
	// Second access hits in L1.
	h.Access(a)
	if h.L1DStats().TotalHits() != 1 {
		t.Fatalf("second access did not hit L1: %+v", h.L1DStats())
	}
	if h.MemReads != 1 {
		t.Fatalf("second access re-read memory")
	}
}

func TestFetchRoutesToL1I(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(1, nil))
	h.Access(trace.Access{Addr: 0x400000, Size: 4, Seg: trace.Code, Kind: trace.Fetch})
	if h.L1IStats().Accesses() != 1 {
		t.Fatal("fetch did not reach L1-I")
	}
	if h.L1DStats().Accesses() != 0 {
		t.Fatal("fetch leaked into L1-D")
	}
	h.Access(trace.Access{Addr: 0x400000, Size: 4, Seg: trace.Code, Kind: trace.Fetch})
	if h.L1IStats().TotalHits() != 1 {
		t.Fatal("refetch did not hit L1-I")
	}
}

func TestSpanningAccessSplits(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(1, nil))
	// 8 bytes starting 4 bytes before a block boundary: two blocks.
	h.Access(trace.Access{Addr: 60, Size: 8, Seg: trace.Heap, Kind: trace.Read})
	if got := h.L1DStats().Accesses(); got != 2 {
		t.Fatalf("spanning access made %d probes, want 2", got)
	}
}

func TestPrivateCachesPerCore(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(2, nil))
	// Same address from two different threads on two cores: the second
	// thread's L1 must miss (no coherence, but caches are private).
	h.Access(trace.Access{Addr: 0x2000, Size: 8, Seg: trace.Heap, Kind: trace.Read, Thread: 0})
	h.Access(trace.Access{Addr: 0x2000, Size: 8, Seg: trace.Heap, Kind: trace.Read, Thread: 1})
	if h.L1DStats().TotalMisses() != 2 {
		t.Fatalf("private L1s should both miss, got %+v", h.L1DStats())
	}
	// But the shared L3 serves the second core.
	if h.L3Stats().TotalHits() != 1 {
		t.Fatalf("L3 should hit for the second core: %+v", h.L3Stats())
	}
	if h.MemReads != 1 {
		t.Fatalf("memory read twice for a shared block")
	}
}

func TestSMTThreadsShareCore(t *testing.T) {
	cfg := tinyHierarchy(1, nil)
	cfg.ThreadsPerCore = 2
	h := NewHierarchy(cfg)
	h.Access(trace.Access{Addr: 0x2000, Size: 8, Seg: trace.Heap, Kind: trace.Read, Thread: 0})
	h.Access(trace.Access{Addr: 0x2000, Size: 8, Seg: trace.Heap, Kind: trace.Read, Thread: 1})
	// SMT sibling shares the L1: second access hits.
	if h.L1DStats().TotalHits() != 1 {
		t.Fatalf("SMT sibling missed the shared L1: %+v", h.L1DStats())
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	cfg := tinyHierarchy(1, nil)
	cfg.L3 = Config{Size: 1 << 10, BlockSize: 64, Assoc: 1} // direct-mapped, 16 sets
	cfg.L3Inclusive = true
	h := NewHierarchy(cfg)
	// Block 0 lands in L1, L2 and L3. Block 16 collides with it in the
	// direct-mapped L3, evicting it; inclusion must kill the L1/L2 copies.
	hot := trace.Access{Addr: 0, Size: 8, Seg: trace.Heap, Kind: trace.Read}
	h.Access(hot)
	h.Access(trace.Access{Addr: 16 * 64, Size: 8, Seg: trace.Heap, Kind: trace.Read})
	if h.l3.Contains(0) {
		t.Fatal("direct-mapped L3 kept both colliding blocks")
	}
	before := h.MemReads
	h.Access(hot)
	if h.MemReads != before+1 {
		t.Fatal("back-invalidated block still hit in a private cache")
	}
	total := h.L1DStats().BackInvalidations + h.L2Stats().BackInvalidations
	if total == 0 {
		t.Fatal("no back-invalidations recorded")
	}
}

func TestNonInclusiveKeepsL1(t *testing.T) {
	cfg := tinyHierarchy(1, nil)
	cfg.L3Inclusive = false
	h := NewHierarchy(cfg)
	hot := trace.Access{Addr: 0, Size: 8, Seg: trace.Heap, Kind: trace.Read}
	h.Access(hot)
	// A stream that thrashes L3 but maps to a different L1 set than the
	// hot block (L1 has 8 sets; use addresses = 64*(8k+1)).
	for i := uint64(0); i < 4096; i++ {
		h.Access(trace.Access{Addr: (8*i + 1) * 64, Size: 8, Seg: trace.Heap, Kind: trace.Read})
	}
	l1Before := h.L1DStats().TotalHits()
	h.Access(hot)
	if h.L1DStats().TotalHits() != l1Before+1 {
		t.Fatal("non-inclusive hierarchy lost an L1 line it should have kept")
	}
}

func TestDirtyWritebackReachesMemory(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(1, nil))
	// Write a block, then thrash everything so it is evicted everywhere.
	h.Access(trace.Access{Addr: 0, Size: 8, Seg: trace.Heap, Kind: trace.Write})
	for i := uint64(1); i <= 8192; i++ {
		h.Access(trace.Access{Addr: i * 64, Size: 8, Seg: trace.Heap, Kind: trace.Read})
	}
	if h.MemWrites == 0 {
		t.Fatal("dirty data never written back to memory")
	}
}

func TestL4VictimFill(t *testing.T) {
	l4 := &Config{Name: "L4", Size: 1 << 20, BlockSize: 64, Assoc: 1}
	h := NewHierarchy(tinyHierarchy(1, l4))
	// Touch a working set bigger than L3 (16 KiB) but smaller than L4
	// (1 MiB), twice. The second pass should hit mostly in L4.
	const blocks = 2048 // 128 KiB
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < blocks; i++ {
			h.Access(trace.Access{Addr: i * 64, Size: 8, Seg: trace.Heap, Kind: trace.Read})
		}
	}
	l4Stats := h.L4Stats()
	if l4Stats.TotalHits() == 0 {
		t.Fatal("L4 victim cache never hit")
	}
	hitRate := l4Stats.HitRate()
	if hitRate < 0.4 {
		t.Fatalf("L4 hit rate %.2f too low for re-streamed working set", hitRate)
	}
	// Memory reads must be well below 2 passes' worth.
	if h.MemReads >= 2*blocks {
		t.Fatalf("L4 filtered nothing: MemReads=%d", h.MemReads)
	}
}

func TestL4DirtyEvictionWritesMemory(t *testing.T) {
	// Small L4 forces dirty victims out of the L4 to memory.
	l4 := &Config{Name: "L4", Size: 32 << 10, BlockSize: 64, Assoc: 1}
	h := NewHierarchy(tinyHierarchy(1, l4))
	for i := uint64(0); i < 8192; i++ {
		h.Access(trace.Access{Addr: i * 64, Size: 8, Seg: trace.Heap, Kind: trace.Write})
	}
	if h.MemWrites == 0 {
		t.Fatal("dirty blocks evicted from L4 never reached memory")
	}
}

func TestDRAMAccessesAndReset(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(1, nil))
	for i := uint64(0); i < 100; i++ {
		h.Access(trace.Access{Addr: i * 64, Size: 8, Seg: trace.Shard, Kind: trace.Read})
	}
	if h.DRAMAccesses() != h.MemReads+h.MemWrites || h.DRAMAccesses() == 0 {
		t.Fatalf("DRAMAccesses inconsistent")
	}
	h.ResetStats()
	if h.DRAMAccesses() != 0 || h.L1DStats().Accesses() != 0 || h.L3Stats().Accesses() != 0 {
		t.Fatal("ResetStats left counters")
	}
}

func TestHierarchyDeterminism(t *testing.T) {
	mk := func() int64 {
		h := NewHierarchy(tinyHierarchy(2, nil))
		rng := stats.NewRNG(5)
		z := stats.NewZipf(rng, 4096, 0.8)
		for i := 0; i < 20000; i++ {
			h.Access(trace.Access{
				Addr:   z.Next() * 64,
				Size:   8,
				Seg:    trace.Heap,
				Kind:   trace.Read,
				Thread: uint8(i % 2),
			})
		}
		return h.MemReads + h.L3Stats().TotalHits()*1000
	}
	if mk() != mk() {
		t.Fatal("identical runs diverged")
	}
}

func TestLargerL3NeverMoreMemReads(t *testing.T) {
	// Hierarchy-level monotonicity: growing the L3 must not increase
	// memory traffic on the same trace.
	run := func(l3Size int64) int64 {
		cfg := tinyHierarchy(1, nil)
		cfg.L3 = Config{Size: l3Size, BlockSize: 64, Assoc: 8}
		h := NewHierarchy(cfg)
		rng := stats.NewRNG(17)
		z := stats.NewZipf(rng, 8192, 0.9)
		for i := 0; i < 50000; i++ {
			h.Access(trace.Access{Addr: z.Next() * 64, Size: 8, Seg: trace.Heap, Kind: trace.Read})
		}
		return h.MemReads
	}
	small, big := run(16<<10), run(256<<10)
	if big > small {
		t.Fatalf("bigger L3 increased memory reads: %d > %d", big, small)
	}
}

func TestHierarchyDrain(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(1, nil))
	accs := []trace.Access{
		{Addr: 0, Size: 8, Seg: trace.Heap, Kind: trace.Read},
		{Addr: 0, Size: 8, Seg: trace.Heap, Kind: trace.Read},
	}
	drainBatch(h, flatRecording(accs).View())
	if h.L1DStats().Accesses() != 2 {
		t.Fatal("drain did not process all accesses")
	}
}

func TestHitLevels(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(1, &Config{Size: 64 << 10, BlockSize: 64, Assoc: 1}))
	a := trace.Access{Addr: 0, Size: 8, Seg: trace.Heap, Kind: trace.Read}
	if lvl := h.Access(a); lvl != HitMemory {
		t.Fatalf("cold access level %v", lvl)
	}
	if lvl := h.Access(a); lvl != HitL1 {
		t.Fatalf("warm access level %v", lvl)
	}
	for _, want := range []struct {
		l HitLevel
		s string
	}{{HitL1, "L1"}, {HitL2, "L2"}, {HitL3, "L3"}, {HitL4, "L4"}, {HitMemory, "memory"}, {HitLevel(9), "level(9)"}} {
		if want.l.String() != want.s {
			t.Errorf("%d.String() = %q", want.l, want.l.String())
		}
	}
}

func TestHitLevelL4(t *testing.T) {
	// Fill a block, thrash it out of the small L3 into the L4, re-access.
	cfg := tinyHierarchy(1, &Config{Size: 1 << 20, BlockSize: 64, Assoc: 1})
	cfg.L3 = Config{Size: 1 << 10, BlockSize: 64, Assoc: 1} // tiny L3, 16 sets
	h := NewHierarchy(cfg)
	h.Access(trace.Access{Addr: 0, Size: 8, Seg: trace.Heap, Kind: trace.Read})
	// Collide in L3 set 0 and in the L1/L2 sets enough to evict block 0
	// everywhere (inclusive back-invalidation does it via the L3).
	h.Access(trace.Access{Addr: 16 * 64, Size: 8, Seg: trace.Heap, Kind: trace.Read})
	if lvl := h.Access(trace.Access{Addr: 0, Size: 8, Seg: trace.Heap, Kind: trace.Read}); lvl != HitL4 {
		t.Fatalf("victim re-access level %v, want L4", lvl)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(1, &Config{Size: 64 << 10, BlockSize: 64, Assoc: 1}))
	a := trace.Access{Addr: 0x40, Size: 8, Seg: trace.Heap, Kind: trace.Read}
	h.Access(a)
	h.ResetStats()
	if h.L1DStats().Accesses() != 0 || h.MemReads != 0 {
		t.Fatal("stats not cleared")
	}
	if lvl := h.Access(a); lvl != HitL1 {
		t.Fatal("contents lost by ResetStats")
	}
}

func TestInstallPrefetchDirect(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(1, nil))
	h.InstallPrefetch(0, 0x1000, trace.Shard)
	if h.PrefetchFills != 1 || h.PrefetchMemReads != 1 {
		t.Fatalf("prefetch counters: %d fills, %d mem", h.PrefetchFills, h.PrefetchMemReads)
	}
	// Demand access now hits in L2.
	if lvl := h.Access(trace.Access{Addr: 0x1000, Size: 8, Seg: trace.Shard, Kind: trace.Read}); lvl != HitL2 {
		t.Fatalf("prefetched block serviced at %v, want L2", lvl)
	}
	// Re-prefetching a resident block is a no-op.
	h.InstallPrefetch(0, 0x1000, trace.Shard)
	if h.PrefetchFills != 1 {
		t.Fatal("duplicate prefetch counted")
	}
	// Out-of-range core is ignored.
	h.InstallPrefetch(99, 0x2000, trace.Shard)
	if h.PrefetchFills != 1 {
		t.Fatal("invalid core prefetch accepted")
	}
}

func TestAggregateL1StatsAndL4Accessors(t *testing.T) {
	l4 := &Config{Size: 64 << 10, BlockSize: 64, Assoc: 1}
	h := NewHierarchy(tinyHierarchy(2, l4))
	if !h.HasL4() || h.l4 == nil || h.l3 == nil {
		t.Fatal("accessors broken")
	}
	h.Access(trace.Access{Addr: 0, Size: 4, Seg: trace.Code, Kind: trace.Fetch})
	h.Access(trace.Access{Addr: 0x4000, Size: 8, Seg: trace.Heap, Kind: trace.Read, Thread: 1})
	combined := h.L1Stats()
	if combined.Accesses() != 2 {
		t.Fatalf("combined L1 accesses %d", combined.Accesses())
	}
	if h.Config().Cores != 2 {
		t.Fatal("Config accessor broken")
	}
	noL4 := NewHierarchy(tinyHierarchy(1, nil))
	if noL4.HasL4() || noL4.l4 != nil {
		t.Fatal("phantom L4")
	}
	if noL4.L4Stats().Accesses() != 0 {
		t.Fatal("L4 stats on missing L4")
	}
}

func TestSplitL2(t *testing.T) {
	cfg := tinyHierarchy(1, nil)
	cfg.SplitL2 = true
	h := NewHierarchy(cfg)
	// A fetch and a load to addresses colliding in a unified L2 must not
	// evict each other when split.
	h.Access(trace.Access{Addr: 0x100, Size: 4, Seg: trace.Code, Kind: trace.Fetch})
	h.Access(trace.Access{Addr: 0x100, Size: 8, Seg: trace.Heap, Kind: trace.Read})
	// Both must be L2-resident in their own halves after L1 invalidation
	// is irrelevant: probe L2Stats by re-access after flushing L1 via
	// conflicting fills.
	s := h.L2Stats()
	if s.Accesses() != 2 {
		t.Fatalf("split L2 saw %d accesses", s.Accesses())
	}
	if s.KindMisses(trace.Fetch) != 1 || s.KindMisses(trace.Read) != 1 {
		t.Fatalf("split L2 kind misses: %+v", s)
	}
	// ResetStats covers the split caches.
	h.ResetStats()
	if h.L2Stats().Accesses() != 0 {
		t.Fatal("split L2 stats survived reset")
	}
}

func TestSplitL2HalvesCapacity(t *testing.T) {
	cfg := tinyHierarchy(1, nil)
	cfg.SplitL2 = true
	h := NewHierarchy(cfg)
	if got := h.l2[0].cfg.Size; got != cfg.L2.Size/2 {
		t.Fatalf("L2-D size %d, want half of %d", got, cfg.L2.Size)
	}
	if got := h.l2i[0].cfg.Size; got != cfg.L2.Size/2 {
		t.Fatalf("L2-I size %d", got)
	}
}

// TestHierarchyConservationProperty: at every level, hits + misses equals
// the probes that reached it, for arbitrary access streams.
func TestHierarchyConservationProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		h := NewHierarchy(tinyHierarchy(2, &Config{Size: 64 << 10, BlockSize: 64, Assoc: 1}))
		var probes int64
		for i := 0; i < 3000; i++ {
			a := trace.Access{
				Addr:   rng.Uint64n(1 << 22),
				Size:   uint16(1 + rng.Intn(16)),
				Seg:    trace.Segment(rng.Intn(trace.NumSegments)),
				Kind:   trace.Kind(rng.Intn(trace.NumKinds)),
				Thread: uint8(rng.Intn(2)),
			}
			h.Access(a)
			first := a.Addr >> 6
			last := (a.Addr + uint64(a.Size) - 1) >> 6
			probes += int64(last - first + 1)
		}
		l1 := h.L1Stats()
		if l1.Accesses() != probes {
			return false
		}
		// L2 demand probes equal L1 misses; L3 probes equal L2 misses.
		if h.L2Stats().Accesses() != l1.TotalMisses() {
			return false
		}
		if h.L3Stats().Accesses() != h.L2Stats().TotalMisses() {
			return false
		}
		// Post-L3 demand reads are partitioned by the L4 and memory.
		return h.L4Stats().Accesses() == h.L3Stats().TotalMisses() &&
			h.L4Stats().TotalMisses() == h.MemReads-h.PrefetchMemReads
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerFilterOnlyWhereItApplies pins the filter's scope: tracked only on
// an inclusive set-associative L3, and an untracked cache reports allOwners.
func TestOwnerFilterOnlyWhereItApplies(t *testing.T) {
	incl := tinyHierarchy(2, &Config{Size: 32 << 10, BlockSize: 64, Assoc: 4})
	if h := NewHierarchy(incl); h.l3.owners == nil || h.l4.owners != nil || h.l2[0].owners != nil {
		t.Error("owners must be tracked on the inclusive L3 and nowhere else")
	}
	nonIncl := incl
	nonIncl.L3Inclusive = false
	if NewHierarchy(nonIncl).l3.owners != nil {
		t.Error("non-inclusive L3 tracks owners")
	}
	fa := incl
	fa.L3.Assoc = 0
	if NewHierarchy(fa).l3.owners != nil {
		t.Error("fully-associative L3 tracks owners")
	}
	for _, cfg := range []Config{{Size: 128, BlockSize: 64, Assoc: 2}, {Size: 128, BlockSize: 64}} {
		c := New(cfg)
		c.Fill(1, trace.Heap, false)
		c.Fill(3, trace.Heap, false)
		if ev, ok := c.Fill(5, trace.Heap, false); !ok || ev.Owners != allOwners {
			t.Errorf("assoc %d: evicted line %+v, want Owners %#x", cfg.Assoc, ev, allOwners)
		}
		if l, ok := c.Invalidate(3); !ok || l.Owners != allOwners {
			t.Errorf("assoc %d: invalidated line %+v, want Owners %#x", cfg.Assoc, l, allOwners)
		}
	}
}

// TestPrefetchChecksL4BeforeVictim pins, by hand, the order a prefetch that
// misses the L3 meets the tail: the L4 is asked for the prefetched block
// before the fill's L3 victim lands in the L4. Block X sits in a
// direct-mapped L4 whose only set X shares with the L3 victim V; asking
// after V arrives would find X evicted and count a memory read.
func TestPrefetchChecksL4BeforeVictim(t *testing.T) {
	cfg := HierarchyConfig{
		Cores: 1, ThreadsPerCore: 1,
		L1I: Config{Size: 128, BlockSize: 64, Assoc: 2},
		L1D: Config{Size: 128, BlockSize: 64, Assoc: 2},
		L2:  Config{Size: 128, BlockSize: 64, Assoc: 2},
		L3:  Config{Size: 128, BlockSize: 64, Assoc: 2},
		L4:  &Config{Size: 64, BlockSize: 64, Assoc: 1},
	}
	h := NewHierarchy(cfg)
	read := func(addr uint64) { h.Access(trace.Access{Addr: addr, Size: 8, Seg: trace.Heap, Kind: trace.Read}) }
	read(0)   // X in the L3
	read(64)  // V in the L3
	read(128) // evicts X (LRU) from the L3 into the one-line L4
	if !h.l4.Contains(0) {
		t.Fatal("setup: X did not land in the L4")
	}
	// Prefetching X misses the L3 and L2 (both two-way, holding V and 128),
	// evicts V from the L3 into the L4, and V displaces X there.
	h.InstallPrefetch(0, 0, trace.Heap)
	if h.PrefetchFills != 1 || h.PrefetchMemReads != 0 {
		t.Errorf("prefetch of an L4-resident block: %d fills, %d memory reads; want 1, 0", h.PrefetchFills, h.PrefetchMemReads)
	}
	if h.l4.Contains(0) || !h.l4.Contains(1) {
		t.Error("the prefetch's L3 victim did not displace the prefetched block from the L4")
	}
}
