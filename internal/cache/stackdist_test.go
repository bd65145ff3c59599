package cache

import (
	"math"
	"testing"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

func TestStackDistSimpleReuse(t *testing.T) {
	sd := NewStackDist(64)
	// Access A, B, A: A's reuse distance is 1 block (only B between).
	sd.Observe(trace.Access{Addr: 0, Size: 8, Seg: trace.Heap})
	sd.Observe(trace.Access{Addr: 64, Size: 8, Seg: trace.Heap})
	sd.Observe(trace.Access{Addr: 0, Size: 8, Seg: trace.Heap})
	if got := sd.ColdMisses(trace.Heap); got != 2 {
		t.Fatalf("cold misses %d, want 2", got)
	}
	// A cache of 2+ blocks hits the reuse; a 1-block cache misses it.
	if hits := sd.Hits(trace.Heap, 2*64); hits != 1 {
		t.Fatalf("hits at 2 blocks = %v, want 1", hits)
	}
	if hits := sd.Hits(trace.Heap, 64); hits != 0 {
		t.Fatalf("hits at 1 block = %v, want 0", hits)
	}
}

func TestStackDistZeroDistance(t *testing.T) {
	sd := NewStackDist(64)
	sd.Observe(trace.Access{Addr: 0, Size: 8, Seg: trace.Heap})
	sd.Observe(trace.Access{Addr: 0, Size: 8, Seg: trace.Heap})
	// Immediate reuse hits at any capacity >= 1 block.
	if hits := sd.Hits(trace.Heap, 64); hits != 1 {
		t.Fatalf("immediate reuse hits = %v, want 1", hits)
	}
}

func TestStackDistMatchesFullyAssociativeSim(t *testing.T) {
	// The profiler's predicted hit counts must match a directly simulated
	// fully-associative LRU cache at power-of-two capacities.
	rng := stats.NewRNG(31)
	z := stats.NewZipf(rng, 2048, 0.85)
	blocks := make([]uint64, 40000)
	for i := range blocks {
		blocks[i] = z.Next()
	}
	sd := NewStackDist(64)
	for _, b := range blocks {
		sd.Observe(trace.Access{Addr: b * 64, Size: 1, Seg: trace.Heap})
	}
	for _, capBlocks := range []int64{16, 64, 256, 1024} {
		c := New(Config{Name: "fa", Size: capBlocks * 64, BlockSize: 64, Assoc: 0})
		var simHits int64
		for _, b := range blocks {
			if c.Access(b, trace.Heap, trace.Read) {
				simHits++
			} else {
				c.Fill(b, trace.Heap, false)
			}
		}
		predicted := sd.Hits(trace.Heap, capBlocks*64)
		if math.Abs(predicted-float64(simHits)) > 0.5 {
			t.Fatalf("capacity %d blocks: stackdist %v vs simulated %d", capBlocks, predicted, simHits)
		}
	}
}

func TestStackDistMonotone(t *testing.T) {
	rng := stats.NewRNG(41)
	sd := NewStackDist(64)
	for i := 0; i < 20000; i++ {
		sd.Observe(trace.Access{Addr: rng.Uint64n(4096) * 64, Size: 1, Seg: trace.Shard})
	}
	prev := -1.0
	for capBytes := int64(64); capBytes <= 1<<20; capBytes *= 2 {
		h := sd.Hits(trace.Shard, capBytes)
		if h < prev {
			t.Fatalf("hits decreased with capacity at %d bytes", capBytes)
		}
		prev = h
	}
	// At huge capacity, misses equal cold misses.
	missesAtInf := sd.Misses(trace.Shard, 1<<40)
	if math.Abs(missesAtInf-float64(sd.ColdMisses(trace.Shard))) > 0.5 {
		t.Fatalf("misses at infinite capacity %v != cold %d", missesAtInf, sd.ColdMisses(trace.Shard))
	}
}

func TestStackDistPerSegmentSeparation(t *testing.T) {
	sd := NewStackDist(64)
	sd.Observe(trace.Access{Addr: 0, Size: 8, Seg: trace.Heap})
	sd.Observe(trace.Access{Addr: 1 << 30, Size: 8, Seg: trace.Shard})
	if sd.Accesses(trace.Heap) != 1 || sd.Accesses(trace.Shard) != 1 {
		t.Fatal("per-segment access counts wrong")
	}
}

func TestStackDistMPKI(t *testing.T) {
	sd := NewStackDist(64)
	for i := uint64(0); i < 1000; i++ {
		sd.Observe(trace.Access{Addr: i * 64, Size: 1, Seg: trace.Heap})
	}
	// All cold: MPKI at any size = 1000 misses / 1 Kinstr = 1000 * ratio.
	mpki := sd.SegMPKI(trace.Heap, 1<<20, 10000)
	if math.Abs(mpki-100) > 1e-9 {
		t.Fatalf("MPKI = %v, want 100", mpki)
	}
	if sd.SegMPKI(trace.Heap, 1<<20, 0) != 0 {
		t.Fatal("zero instructions must give 0 MPKI")
	}
}

func TestStackDistPanicsOnBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad block size accepted")
		}
	}()
	NewStackDist(100)
}

func TestDistBucket(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 1023: 10, 1024: 11}
	for d, want := range cases {
		if got := distBucket(d); got != want {
			t.Errorf("distBucket(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestOstreeBasics(t *testing.T) {
	var tr ostree
	tr.init()
	for i := uint64(1); i <= 100; i++ {
		tr.insertMax(i)
	}
	if tr.sz(tr.root) != 100 {
		t.Fatalf("count = %d", tr.sz(tr.root))
	}
	if got := tr.countGreater(50); got != 50 {
		t.Fatalf("countGreater(50) = %d", got)
	}
	tr.remove(75)
	if got := tr.countGreater(50); got != 49 {
		t.Fatalf("after remove: countGreater(50) = %d", got)
	}
	if tr.sz(tr.root) != 99 {
		t.Fatalf("count after remove = %d", tr.sz(tr.root))
	}
}

func TestOstreeRandomOps(t *testing.T) {
	var tr ostree
	tr.init()
	rng := stats.NewRNG(7)
	live := map[uint64]bool{}
	var next uint64
	for i := 0; i < 5000; i++ {
		if len(live) == 0 || rng.Bool(0.6) {
			next++
			tr.insertMax(next)
			live[next] = true
		} else {
			// Remove a random live key.
			var k uint64
			n := rng.Intn(len(live))
			for key := range live {
				if n == 0 {
					k = key
					break
				}
				n--
			}
			tr.remove(k)
			delete(live, k)
		}
	}
	if int(tr.sz(tr.root)) != len(live) {
		t.Fatalf("tree count %d != live %d", tr.sz(tr.root), len(live))
	}
	// Verify a few rank queries against brute force.
	for probe := uint64(0); probe <= next; probe += next/7 + 1 {
		want := int64(0)
		for k := range live {
			if k > probe {
				want++
			}
		}
		if got := tr.countGreater(probe); got != want {
			t.Fatalf("countGreater(%d) = %d, want %d", probe, got, want)
		}
	}
}

func TestStackDistDrainAndRates(t *testing.T) {
	sd := NewStackDist(64)
	accs := []trace.Access{
		{Addr: 0, Size: 8, Seg: trace.Heap},
		{Addr: 64, Size: 8, Seg: trace.Shard},
		{Addr: 0, Size: 8, Seg: trace.Heap},
	}
	for _, a := range accs {
		sd.Observe(a)
	}
	if sd.Accesses(trace.Heap) != 2 || sd.Accesses(trace.Shard) != 1 {
		t.Fatalf("observed %d heap / %d shard", sd.Accesses(trace.Heap), sd.Accesses(trace.Shard))
	}
	if h := sd.Hits(trace.Heap, 1<<20); h != 1 {
		t.Fatalf("heap hits %v, want 1 of 2", h)
	}
	if h := sd.Hits(trace.Stack, 1<<20); h != 0 {
		t.Fatalf("empty-segment hits %v", h)
	}
	if sd.Hits(trace.Heap, 0) != 0 {
		// capacity below one block: no hits
		t.Fatal("zero capacity should hit nothing")
	}
}
