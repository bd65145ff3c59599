package cache

import (
	"testing"
	"testing/quick"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

func smallCfg(assoc int) Config {
	return Config{Name: "test", Size: 1024, BlockSize: 64, Assoc: assoc}
}

// occupancy counts c's valid lines from the per-way metadata, independently
// of the per-set occupancy counters the fill path trusts.
func occupancy(c *Cache) int {
	if c.assoc == 0 {
		return len(c.faIndex)
	}
	n := 0
	for _, m := range c.meta {
		if m&metaValid != 0 {
			n++
		}
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Size: 0, BlockSize: 64, Assoc: 4},
		{Size: 1024, BlockSize: 0, Assoc: 4},
		{Size: 1024, BlockSize: 48, Assoc: 4},
		{Size: 1024, BlockSize: 64, Assoc: -1},
		{Size: 1024, BlockSize: 64, Assoc: 5},               // 16 blocks not divisible by 5
		{Size: 1024, BlockSize: 64, Assoc: 4, AllocWays: 5}, // AllocWays > Assoc
		{Size: 32, BlockSize: 64, Assoc: 0},                 // smaller than a block
		{Size: 1024, BlockSize: 64, Assoc: 0, AllocWays: 2},
		{Size: 1024, BlockSize: 64, Assoc: 0, Policy: Random},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	good := []Config{
		smallCfg(4),
		smallCfg(1),  // direct-mapped
		smallCfg(0),  // fully associative
		smallCfg(16), // single set
		{Size: 45 << 20, BlockSize: 64, Assoc: 20}, // PLT1 L3: non-power-of-two sets
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("case %d: valid config rejected: %v", i, err)
		}
	}
}

func TestBasicHitMiss(t *testing.T) {
	for _, assoc := range []int{0, 1, 4} {
		c := New(smallCfg(assoc))
		if c.Access(5, trace.Heap, trace.Read) {
			t.Fatalf("assoc=%d: empty cache hit", assoc)
		}
		c.Fill(5, trace.Heap, false)
		if !c.Access(5, trace.Heap, trace.Read) {
			t.Fatalf("assoc=%d: filled block missed", assoc)
		}
		if c.Stats.TotalHits() != 1 || c.Stats.TotalMisses() != 1 {
			t.Fatalf("assoc=%d: stats %+v", assoc, c.Stats)
		}
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 1024 B direct-mapped has 16 sets: blocks 0 and 16 collide.
	c := New(smallCfg(1))
	c.Fill(0, trace.Heap, false)
	ev, ok := c.Fill(16, trace.Heap, false)
	if !ok || ev.BlockAddr != 0 {
		t.Fatalf("direct-mapped conflict not evicted: %+v ok=%v", ev, ok)
	}
	// Non-colliding block must not evict.
	if _, ok := c.Fill(1, trace.Heap, false); ok {
		t.Fatal("non-conflicting fill evicted")
	}
}

func TestDirtyWritebackFlag(t *testing.T) {
	for _, assoc := range []int{0, 16} {
		c := New(smallCfg(assoc))
		c.Fill(7, trace.Heap, true)
		// Fill the rest, then force eviction of everything; the dirty line
		// must come out dirty.
		for b := uint64(100); b < 116; b++ {
			c.Fill(b, trace.Heap, false)
		}
		found := false
		c2 := New(smallCfg(assoc))
		c2.OnEvict = func(l Line) {
			if l.BlockAddr == 7 && l.Dirty {
				found = true
			}
		}
		c2.Fill(7, trace.Heap, true)
		for b := uint64(100); b < 132; b++ {
			c2.Fill(b, trace.Heap, false)
		}
		if !found {
			t.Fatalf("assoc=%d: dirty eviction not observed", assoc)
		}
	}
}

func TestWriteMarksDirty(t *testing.T) {
	for _, assoc := range []int{0, 4} {
		c := New(smallCfg(assoc))
		c.Fill(3, trace.Heap, false)
		c.Access(3, trace.Heap, trace.Write)
		line, present := c.Invalidate(3)
		if !present || !line.Dirty {
			t.Fatalf("assoc=%d: write did not mark dirty: %+v", assoc, line)
		}
	}
}

func TestMarkDirty(t *testing.T) {
	for _, assoc := range []int{0, 4} {
		c := New(smallCfg(assoc))
		if c.MarkDirty(9) {
			t.Fatalf("assoc=%d: MarkDirty on absent block", assoc)
		}
		c.Fill(9, trace.Heap, false)
		if !c.MarkDirty(9) {
			t.Fatalf("assoc=%d: MarkDirty on resident block failed", assoc)
		}
		line, _ := c.Invalidate(9)
		if !line.Dirty {
			t.Fatalf("assoc=%d: dirty flag lost", assoc)
		}
	}
}

func TestInvalidate(t *testing.T) {
	for _, assoc := range []int{0, 4} {
		c := New(smallCfg(assoc))
		if _, present := c.Invalidate(11); present {
			t.Fatalf("assoc=%d: invalidate on empty cache", assoc)
		}
		c.Fill(11, trace.Shard, true)
		line, present := c.Invalidate(11)
		if !present || line.BlockAddr != 11 || !line.Dirty || line.Seg != trace.Shard {
			t.Fatalf("assoc=%d: bad invalidated line %+v", assoc, line)
		}
		if c.Contains(11) {
			t.Fatalf("assoc=%d: block present after invalidate", assoc)
		}
	}
}

func TestFillExistingDoesNotEvict(t *testing.T) {
	for _, assoc := range []int{0, 4} {
		c := New(smallCfg(assoc))
		c.Fill(5, trace.Heap, false)
		if _, ok := c.Fill(5, trace.Heap, true); ok {
			t.Fatalf("assoc=%d: refill evicted", assoc)
		}
		// The refill's dirty flag must stick.
		line, _ := c.Invalidate(5)
		if !line.Dirty {
			t.Fatalf("assoc=%d: refill dropped dirty flag", assoc)
		}
		if occupancy(c) != 0 {
			t.Fatalf("assoc=%d: occupancy %d", assoc, occupancy(c))
		}
	}
}

func TestCATPartitioning(t *testing.T) {
	// 16 ways but only 4 allocatable: effective capacity is 4 blocks.
	cfg := smallCfg(16)
	cfg.AllocWays = 4
	c := New(cfg)
	for b := uint64(0); b < 5; b++ {
		c.Fill(b, trace.Heap, false)
	}
	if occupancy(c) != 4 {
		t.Fatalf("CAT cache holds %d blocks, want 4", occupancy(c))
	}
	if c.Contains(0) {
		t.Fatal("LRU victim not evicted under partitioning")
	}
}

// TestLRUInclusionProperty verifies Mattson's inclusion property: on the
// same trace, a larger fully-associative LRU cache never has fewer hits.
func TestLRUInclusionProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		z := stats.NewZipf(rng, 512, 0.8)
		blocks := make([]uint64, 4000)
		for i := range blocks {
			blocks[i] = z.Next()
		}
		hits := func(capBlocks int64) int64 {
			c := New(Config{Name: "p", Size: capBlocks * 64, BlockSize: 64, Assoc: 0})
			var h int64
			for _, b := range blocks {
				if c.Access(b, trace.Heap, trace.Read) {
					h++
				} else {
					c.Fill(b, trace.Heap, false)
				}
			}
			return h
		}
		prev := int64(-1)
		for _, capBlocks := range []int64{4, 16, 64, 256, 1024} {
			h := hits(capBlocks)
			if h < prev {
				return false
			}
			prev = h
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsConservation: hits + misses == accesses, for arbitrary streams.
func TestStatsConservation(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		c := New(smallCfg(4))
		const n = 2000
		for i := 0; i < n; i++ {
			b := rng.Uint64n(64)
			seg := trace.Segment(rng.Intn(trace.NumSegments))
			kind := trace.Kind(rng.Intn(trace.NumKinds))
			if !c.Access(b, seg, kind) {
				c.Fill(b, seg, kind == trace.Write)
			}
		}
		return c.Stats.Accesses() == n &&
			c.Stats.TotalHits()+c.Stats.TotalMisses() == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSetAssocVsFullyAssocSameCapacity: on a uniform stream a fully
// associative cache hits at least nearly as often as a set-associative one
// of the same size (conflicts only hurt).
func TestFullAssocNoWorseOnAverage(t *testing.T) {
	rng := stats.NewRNG(99)
	z := stats.NewZipf(rng, 2048, 0.9)
	blocks := make([]uint64, 30000)
	for i := range blocks {
		blocks[i] = z.Next()
	}
	run := func(assoc int) int64 {
		c := New(Config{Name: "x", Size: 16 << 10, BlockSize: 64, Assoc: assoc})
		var h int64
		for _, b := range blocks {
			if c.Access(b, trace.Heap, trace.Read) {
				h++
			} else {
				c.Fill(b, trace.Heap, false)
			}
		}
		return h
	}
	faHits, dmHits := run(0), run(1)
	if faHits < dmHits {
		t.Fatalf("fully-assoc hits %d < direct-mapped hits %d on Zipf stream", faHits, dmHits)
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		for _, assoc := range []int{0, 1, 4} {
			c := New(smallCfg(assoc))
			for i := 0; i < 500; i++ {
				c.Fill(rng.Uint64n(1000), trace.Heap, rng.Bool(0.3))
				if occupancy(c) > 16 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "random" {
		t.Fatal("policy strings wrong")
	}
	if Policy(9).String() != "policy(9)" {
		t.Fatal("unknown policy string wrong")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{Size: -1, BlockSize: 64, Assoc: 1})
}
