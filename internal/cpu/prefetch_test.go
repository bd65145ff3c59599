package cpu

import (
	"testing"

	"searchmem/internal/cache"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

func TestNextLineOnMissOnly(t *testing.T) {
	p := NextLine{BlockSize: 64, Degree: 1}
	out := p.OnAccess(128, true, nil)
	if len(out) != 0 {
		t.Fatal("next-line prefetched on a hit")
	}
	out = p.OnAccess(128, false, nil)
	if len(out) != 1 || out[0] != 192 {
		t.Fatalf("next-line candidates: %v", out)
	}
}

func TestStreamDetectsAscending(t *testing.T) {
	p := NewStream(64)
	var got []uint64
	for b := uint64(0); b < 8; b++ {
		got = p.OnAccess(b*64, false, got[:0])
	}
	// After two confirmations the stream issues 2-ahead prefetches.
	if len(got) != 2 {
		t.Fatalf("confirmed stream issued %d candidates, want 2: %v", len(got), got)
	}
	if got[0] != 8*64 || got[1] != 9*64 {
		t.Fatalf("candidates %v, want next blocks", got)
	}
}

func TestStreamDetectsDescending(t *testing.T) {
	p := newStream(64, 1)
	var got []uint64
	for b := uint64(100); b > 90; b-- {
		got = p.OnAccess(b*64, false, got[:0])
	}
	if len(got) != 1 || got[0] != 90*64 {
		t.Fatalf("descending candidates %v", got)
	}
}

func TestStreamBrokenPatternStops(t *testing.T) {
	p := NewStream(64)
	var out []uint64
	p.OnAccess(0, false, nil)
	p.OnAccess(64, false, nil)
	p.OnAccess(128, false, nil) // confirmed
	out = p.OnAccess(64*40, false, nil)
	if len(out) != 0 {
		t.Fatalf("broken stream still prefetching: %v", out)
	}
}

func TestStreamSameBlockNoInfo(t *testing.T) {
	p := NewStream(64)
	p.OnAccess(0, false, nil)
	p.OnAccess(64, false, nil)
	p.OnAccess(128, false, nil)
	out := p.OnAccess(128, false, nil) // repeat same block
	if len(out) != 0 {
		t.Fatal("same-block access issued prefetches")
	}
	// Stream must still be alive afterwards.
	out = p.OnAccess(192, false, nil)
	if len(out) == 0 {
		t.Fatal("stream lost after same-block access")
	}
}

func TestStreamTableEviction(t *testing.T) {
	p := newStream(64, 1)
	// Touch more distinct regions than the table holds; it must stay
	// bounded.
	for r := uint64(0); r < 2*streamMaxEntries; r++ {
		p.OnAccess(r<<streamRegionShift, false, nil)
	}
	if len(p.table) > streamMaxEntries {
		t.Fatalf("table grew to %d entries", len(p.table))
	}
}

func TestEngineImprovesSequentialScan(t *testing.T) {
	// A shard-like sequential scan: with a stream prefetcher the L2 should
	// service most demand accesses that would otherwise go to memory.
	mkHier := func() *cache.Hierarchy {
		return cache.NewHierarchy(cache.HierarchyConfig{
			Cores: 1, ThreadsPerCore: 1,
			L1I: cache.Config{Size: 1 << 10, BlockSize: 64, Assoc: 2},
			L1D: cache.Config{Size: 1 << 10, BlockSize: 64, Assoc: 2},
			L2:  cache.Config{Size: 8 << 10, BlockSize: 64, Assoc: 4},
			L3:  cache.Config{Size: 32 << 10, BlockSize: 64, Assoc: 8},
		})
	}
	scan := func() []trace.Access {
		var accs []trace.Access
		for i := uint64(0); i < 4096; i++ {
			accs = append(accs, trace.Access{Addr: 1<<30 + i*64, Size: 8, Seg: trace.Shard, Kind: trace.Read})
		}
		return accs
	}

	base := mkHier()
	base.AccessBatch(scan(), nil)
	baseMemStalls := base.MemReads

	pfH := mkHier()
	eng := NewEngine(pfH, 1, func() []Prefetcher {
		return []Prefetcher{newStream(64, 4)}
	})
	for _, a := range scan() {
		eng.Access(a)
	}

	// Demand misses reaching memory must drop sharply: most lines arrive
	// via prefetch before the demand access.
	demandMem := pfH.MemReads - pfH.PrefetchMemReads
	if demandMem >= baseMemStalls/2 {
		t.Fatalf("prefetching left %d demand memory reads (baseline %d)", demandMem, baseMemStalls)
	}
	if pfH.PrefetchFills == 0 {
		t.Fatal("engine issued no prefetches")
	}
}

func TestEnginePollutionOnRandom(t *testing.T) {
	// On a random stream, prefetching must not reduce demand accuracy much
	// but must cost extra bandwidth — the PLT2 degradation mechanism.
	mkHier := func() *cache.Hierarchy {
		return cache.NewHierarchy(cache.HierarchyConfig{
			Cores: 1, ThreadsPerCore: 1,
			L1I: cache.Config{Size: 1 << 10, BlockSize: 64, Assoc: 2},
			L1D: cache.Config{Size: 1 << 10, BlockSize: 64, Assoc: 2},
			L2:  cache.Config{Size: 8 << 10, BlockSize: 64, Assoc: 4},
			L3:  cache.Config{Size: 32 << 10, BlockSize: 64, Assoc: 8},
		})
	}
	randTrace := func() []trace.Access {
		rng := stats.NewRNG(3)
		var accs []trace.Access
		for i := 0; i < 8000; i++ {
			accs = append(accs, trace.Access{Addr: rng.Uint64n(1 << 24), Size: 8, Seg: trace.Heap, Kind: trace.Read})
		}
		return accs
	}
	h := mkHier()
	eng := NewEngine(h, 1, func() []Prefetcher { return []Prefetcher{NextLine{BlockSize: 64, Degree: 1}} })
	for _, a := range randTrace() {
		eng.Access(a)
	}
	if h.PrefetchMemReads == 0 {
		t.Fatal("random stream issued no wasted prefetch bandwidth")
	}
}

func TestEngineIgnoresFetches(t *testing.T) {
	h := cache.NewHierarchy(cache.HierarchyConfig{
		Cores: 1, ThreadsPerCore: 1,
		L1I: cache.Config{Size: 1 << 10, BlockSize: 64, Assoc: 2},
		L1D: cache.Config{Size: 1 << 10, BlockSize: 64, Assoc: 2},
		L2:  cache.Config{Size: 8 << 10, BlockSize: 64, Assoc: 4},
		L3:  cache.Config{Size: 32 << 10, BlockSize: 64, Assoc: 8},
	})
	eng := NewEngine(h, 1, func() []Prefetcher { return []Prefetcher{NextLine{BlockSize: 64, Degree: 1}} })
	for i := uint64(0); i < 100; i++ {
		eng.Access(trace.Access{Addr: i * 64, Size: 4, Seg: trace.Code, Kind: trace.Fetch})
	}
	if h.PrefetchFills != 0 || h.PrefetchMemReads != 0 {
		t.Fatal("data prefetcher fired on instruction fetches")
	}
}

func TestPrefetcherNames(t *testing.T) {
	if (NextLine{}).Name() != "next-line" || NewStream(64).Name() != "stream" {
		t.Fatal("prefetcher names wrong")
	}
}

func TestNextLineAggressiveVariant(t *testing.T) {
	p := NextLine{BlockSize: 64, Degree: 3, OnEveryAccess: true}
	out := p.OnAccess(0, true, nil)
	if len(out) != 3 || out[0] != 64 || out[2] != 192 {
		t.Fatalf("aggressive next-line: %v", out)
	}
}
