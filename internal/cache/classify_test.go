package cache

import (
	"testing"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

func TestClassifierColdMisses(t *testing.T) {
	cl := NewClassifier(Config{Name: "c", Size: 1 << 10, BlockSize: 64, Assoc: 4})
	// Every block touched exactly once: all misses are cold.
	for i := uint64(0); i < 100; i++ {
		cl.Observe(trace.Access{Addr: i * 64, Size: 8, Seg: trace.Shard, Kind: trace.Read})
	}
	if got := cl.Counts[trace.Shard][MissCold]; got != 100 {
		t.Fatalf("cold = %d, want 100", got)
	}
	if cl.Counts[trace.Shard][MissCapacity] != 0 || cl.Counts[trace.Shard][MissConflict] != 0 {
		t.Fatal("single-touch stream produced non-cold misses")
	}
}

func TestClassifierCapacityMisses(t *testing.T) {
	// Cyclic sweep over 2x the cache capacity: after the first pass every
	// miss is a capacity miss (LRU keeps nothing useful).
	cl := NewClassifier(Config{Name: "c", Size: 1 << 10, BlockSize: 64, Assoc: 16})
	const blocks = 32 // cache holds 16
	for pass := 0; pass < 5; pass++ {
		for i := uint64(0); i < blocks; i++ {
			cl.Observe(trace.Access{Addr: i * 64, Size: 8, Seg: trace.Heap, Kind: trace.Read})
		}
	}
	if cl.Counts[trace.Heap][MissCapacity] == 0 {
		t.Fatal("cyclic over-capacity stream produced no capacity misses")
	}
	if cl.Counts[trace.Heap][MissConflict] != 0 {
		t.Fatal("fully-used 16-way set should not conflict on 32-block cycle")
	}
}

func TestClassifierConflictMisses(t *testing.T) {
	// Direct-mapped cache with two hot blocks mapping to the same set:
	// alternating accesses conflict but fit easily in the FA shadow.
	cl := NewClassifier(Config{Name: "c", Size: 1 << 10, BlockSize: 64, Assoc: 1})
	// 16 sets: blocks 0 and 16 collide.
	for i := 0; i < 50; i++ {
		cl.Observe(trace.Access{Addr: 0, Size: 8, Seg: trace.Heap, Kind: trace.Read})
		cl.Observe(trace.Access{Addr: 16 * 64, Size: 8, Seg: trace.Heap, Kind: trace.Read})
	}
	if cl.Counts[trace.Heap][MissConflict] == 0 {
		t.Fatal("ping-pong on one set produced no conflict misses")
	}
	if cl.Counts[trace.Heap][MissCapacity] != 0 {
		t.Fatal("two-block working set cannot have capacity misses")
	}
}

func TestClassifierConservation(t *testing.T) {
	cl := NewClassifier(Config{Name: "c", Size: 1 << 10, BlockSize: 64, Assoc: 2})
	rng := stats.NewRNG(3)
	const n = 5000
	for i := 0; i < n; i++ {
		cl.Observe(trace.Access{Addr: rng.Uint64n(256) * 64, Size: 8, Seg: trace.Heap, Kind: trace.Read})
	}
	total := cl.Hits[trace.Heap] + cl.Misses(trace.Heap)
	if total != n {
		t.Fatalf("hits+misses = %d, want %d", total, n)
	}
	if cl.TotalMisses() != cl.Misses(trace.Heap) {
		t.Fatal("total misses mismatch")
	}
	// Shares across the three classes sum to 1.
	sum := cl.ClassShare(MissCold) + cl.ClassShare(MissCapacity) + cl.ClassShare(MissConflict)
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("class shares sum to %v", sum)
	}
}

func TestClassifierCATShadow(t *testing.T) {
	// With way partitioning the shadow must shrink too: a 4-of-16-way
	// partition on a 1 KiB cache behaves like a 256 B cache.
	cl := NewClassifier(Config{Name: "c", Size: 1 << 10, BlockSize: 64, Assoc: 16}.WayPartition(4))
	if got := cl.shadow.cfg.Size; got != 256 {
		t.Fatalf("shadow size %d, want 256", got)
	}
}

func TestMissClassString(t *testing.T) {
	if MissCold.String() != "cold" || MissCapacity.String() != "capacity" || MissConflict.String() != "conflict" {
		t.Fatal("miss class strings wrong")
	}
	if MissClass(9).String() != "missclass(9)" {
		t.Fatal("unknown class string wrong")
	}
}

func TestClassifierDrain(t *testing.T) {
	cl := NewClassifier(Config{Name: "c", Size: 1 << 10, BlockSize: 64, Assoc: 4})
	for _, a := range []trace.Access{
		{Addr: 0, Size: 8, Seg: trace.Heap, Kind: trace.Read},
		{Addr: 0, Size: 8, Seg: trace.Heap, Kind: trace.Read},
	} {
		cl.Observe(a)
	}
	if cl.Hits[trace.Heap] != 1 || cl.Counts[trace.Heap][MissCold] != 1 {
		t.Fatal("drain miscounted")
	}
}

func TestAccessStatsHelpers(t *testing.T) {
	var s AccessStats
	s.record(trace.Heap, trace.Read, true)
	s.record(trace.Heap, trace.Read, false)
	s.record(trace.Code, trace.Fetch, false)
	if s.SegHits(trace.Heap) != 1 || s.SegMisses(trace.Heap) != 1 {
		t.Fatal("segment counts wrong")
	}
	if s.TotalHits() != 1 || s.TotalMisses() != 2 || s.Accesses() != 3 {
		t.Fatal("totals wrong")
	}
	if s.HitRate() < 0.33 || s.HitRate() > 0.34 {
		t.Fatalf("hit rate %v", s.HitRate())
	}
	if s.SegHitRate(trace.Heap) != 0.5 {
		t.Fatalf("seg hit rate %v", s.SegHitRate(trace.Heap))
	}
	if s.SegHitRate(trace.Stack) != 0 {
		t.Fatal("empty segment hit rate must be 0")
	}
	if s.MPKI(1000) != 2 {
		t.Fatalf("MPKI %v", s.MPKI(1000))
	}
	if s.MPKI(0) != 0 {
		t.Fatal("zero-instruction MPKI must be 0")
	}
	var other AccessStats
	other.record(trace.Heap, trace.Write, true)
	s.Add(&other)
	if s.TotalHits() != 2 {
		t.Fatal("Add failed")
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}
