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

// naiveStack is the independent oracle for StackDist: the LRU stack itself,
// as a move-to-front slice. A block's index in it is its exact distance, so
// nothing here shares an idea with the Fenwick tree — not the slot numbering,
// not the compaction, not the bucket arithmetic.
type naiveStack struct {
	stack  []uint64 // most recent first
	counts [trace.NumSegments][65]int64
	cold   [trace.NumSegments]int64
}

func (n *naiveStack) observe(a trace.Access) {
	size := uint64(a.Size)
	if size == 0 {
		size = 1
	}
	for block := a.Addr / 64; block <= (a.Addr+size-1)/64; block++ {
		at := -1
		for i, b := range n.stack {
			if b == block {
				at = i
				break
			}
		}
		if at < 0 {
			n.cold[a.Seg]++
			n.stack = append(n.stack, 0)
			at = len(n.stack) - 1
		} else {
			bucket := 0 // 0 for distance 0, else 1 + floor(log2(distance))
			for d := at; d > 0; d /= 2 {
				bucket++
			}
			n.counts[a.Seg][bucket]++
		}
		copy(n.stack[1:at+1], n.stack[:at])
		n.stack[0] = block
	}
}

// feed gives tr to sd and to the oracle and compares every bucket and every
// cold count per segment, after each access so that a mismatch names the
// access that caused it.
func (ref *naiveStack) feed(t *testing.T, sd *StackDist, tr ...trace.Access) {
	t.Helper()
	for i, a := range tr {
		sd.Observe(a)
		ref.observe(a)
		if sd.counts != ref.counts || sd.cold != ref.cold {
			t.Fatalf("access %d (%+v): buckets or cold counts differ from the move-to-front oracle\n got %v cold %v\nwant %v cold %v",
				i, a, sd.counts[a.Seg], sd.cold, ref.counts[a.Seg], ref.cold)
		}
	}
}

// checkAgainstNaive feeds tr to a fresh oracle beside sd.
func checkAgainstNaive(t *testing.T, sd *StackDist, tr []trace.Access) {
	t.Helper()
	new(naiveStack).feed(t, sd, tr...)
}

// fuzzTrace decodes three bytes per access: a 12-bit address in 16-byte
// steps (so several addresses share a 64-byte block), a size of 0..135 bytes
// (so an access spans one to four blocks), and a segment.
func fuzzTrace(data []byte) []trace.Access {
	var tr []trace.Access
	for ; len(data) >= 3; data = data[3:] {
		tr = append(tr, trace.Access{
			Addr: (uint64(data[0]) | uint64(data[1]&0x0f)<<8) * 16,
			Size: uint16(data[1]>>4) * 9,
			Seg:  trace.Segment(data[2] % uint8(trace.NumSegments)),
		})
	}
	return tr
}

// FuzzStackDistMatchesNaive compares StackDist bucket-for-bucket and
// cold-for-cold with the move-to-front oracle. slotBits picks the initial
// slot count (2..1024), so an input of a few hundred accesses crosses many
// compactions and grows the tree several times; TestStackDistMatchesNaive
// does the same from the default 1024 slots. The seeds stay short because
// the fuzzer minimizes every interesting input byte by byte.
func FuzzStackDistMatchesNaive(f *testing.F) {
	rng := stats.NewRNG(0xf3)
	seed := make([]byte, 3*300)
	for i := range seed {
		seed[i] = byte(rng.Uint64())
	}
	f.Add(seed, uint8(0))
	f.Add(seed[:300], uint8(4))
	f.Add([]byte{0, 0, 1, 4, 0, 1, 0, 0, 1, 0, 0x40, 2, 0, 0, 1}, uint8(1)) // A B A, a 3-block span, A
	f.Fuzz(func(t *testing.T, data []byte, slotBits uint8) {
		checkAgainstNaive(t, newStackDist(64, 2<<(slotBits%10), 1<<30), fuzzTrace(data))
	})
}

// TestStackDistMatchesNaive runs the oracle over the default constructor on
// a stream that grows the tree from 1024 to 8192 slots and then compacts it
// in place several times.
func TestStackDistMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(0x57ac)
	z := stats.NewZipf(rng, 3000, 0.7)
	tr := make([]trace.Access, 30_000)
	for i := range tr {
		tr[i] = trace.Access{Addr: z.Next()*64 + rng.Uint64n(64), Size: uint16(rng.Uint64n(130)), Seg: trace.Segment(rng.Uint64n(uint64(trace.NumSegments)))}
	}
	sd := NewStackDist(64)
	checkAgainstNaive(t, sd, tr)
	if slots := len(sd.tree) - 1; slots != 8192 {
		t.Fatalf("tree ended at %d slots; the stream was sized to end at 8192", slots)
	}
}

// blockAccess touches one whole block.
func blockAccess(block uint64) trace.Access {
	return trace.Access{Addr: block * 64, Size: 64, Seg: trace.Heap}
}

// TestStackDistAroundCompaction walks the edges of a compaction on an
// 8-slot profiler: distinct-block counts on both sides of the slot count, a
// block re-touched as the first access after a compaction, and an access
// whose blocks straddle one.
func TestStackDistAroundCompaction(t *testing.T) {
	const slots = 8
	for _, distinct := range []int{0, 1, slots - 1, slots, slots + 1} {
		sd := newStackDist(64, slots, 1<<30)
		var tr []trace.Access
		for round := 0; round < 4; round++ { // four rounds: every reuse is at distance distinct-1
			for b := 0; b < distinct; b++ {
				tr = append(tr, blockAccess(uint64(b)))
			}
		}
		checkAgainstNaive(t, sd, tr)
		if got := sd.ColdMisses(trace.Heap); got != int64(distinct) {
			t.Errorf("%d distinct blocks: %d cold misses", distinct, got)
		}
		if distinct > 0 {
			if got := sd.counts[trace.Heap][distBucket(int64(distinct-1))]; got != int64(3*distinct) {
				t.Errorf("%d distinct blocks: %d reuses at distance %d, want %d", distinct, got, distinct-1, 3*distinct)
			}
		}
	}

	// A, then seven accesses to three other blocks: the eight slots are
	// used up, so re-touching A is the first access after the compaction,
	// and its distance is the three blocks, not the seven accesses.
	sd := newStackDist(64, slots, 1<<30)
	a := trace.Access{Addr: 100 * 64, Size: 1, Seg: trace.Code}
	tr := []trace.Access{a}
	for i := 0; i < slots-1; i++ {
		tr = append(tr, blockAccess(uint64(i%3)))
	}
	var ref naiveStack
	ref.feed(t, sd, tr...)
	if int(sd.next) != slots+1 {
		t.Fatalf("next slot %d: the set-up no longer fills the slots exactly", sd.next)
	}
	ref.feed(t, sd, a)
	if sd.next != 4+1+1 {
		t.Fatalf("next slot %d after the compaction and A, want 6 (four live blocks, then A again)", sd.next)
	}
	if got := sd.counts[trace.Code][distBucket(3)]; got != 1 {
		t.Fatalf("A's reuse across the compaction: bucket of distance 3 holds %d", got)
	}

	// Six single blocks, then one access over four blocks: the compaction
	// falls between its second and third block.
	sd = newStackDist(64, slots, 1<<30)
	tr = tr[:0]
	for b := 0; b < slots-2; b++ {
		tr = append(tr, blockAccess(uint64(b%2)))
	}
	span := trace.Access{Addr: 10 * 64, Size: 4 * 64, Seg: trace.Shard}
	tr = append(tr, span, span, blockAccess(0), span)
	checkAgainstNaive(t, sd, tr)
	if got := sd.Accesses(trace.Shard); got != 12 {
		t.Fatalf("three four-block accesses counted as %d block probes", got)
	}
}

// TestStackDistBucketEdges places reuses at distances 2^k-1, 2^k and 2^k+1:
// the first closes bucket k, the other two open bucket k+1. The default
// constructor compacts and grows several times on the way to k = 12.
func TestStackDistBucketEdges(t *testing.T) {
	for _, sd := range []*StackDist{NewStackDist(64), newStackDist(64, 2, 1<<30)} {
		next := uint64(0) // every round uses fresh blocks
		for k := 1; k <= 12; k++ {
			for _, d := range []int{1<<k - 1, 1 << k, 1<<k + 1} {
				x := trace.Access{Addr: next * 64, Size: 1, Seg: trace.Code}
				next++
				sd.Observe(x)
				for i := 0; i < d; i++ {
					sd.Observe(blockAccess(next))
					next++
				}
				want := sd.counts[trace.Code]
				if d < 1<<k {
					want[k]++
				} else {
					want[k+1]++
				}
				sd.Observe(x)
				if sd.counts[trace.Code] != want {
					t.Fatalf("reuse at distance %d: buckets %v, want %v", d, sd.counts[trace.Code][:15], want[:15])
				}
			}
		}
	}
}

// TestStackDistLimit pins what happens past the documented limit: a profiler
// whose largest tree has 16 slots holds 8 distinct blocks for any number of
// accesses, and panics naming the limit on the first touch of a ninth.
func TestStackDistLimit(t *testing.T) {
	sd := newStackDist(64, 4, 16)
	var tr []trace.Access
	for i := 0; i < 200; i++ {
		tr = append(tr, blockAccess(uint64(i*5%8)))
	}
	checkAgainstNaive(t, sd, tr)
	defer func() {
		r := recover()
		if msg, _ := r.(string); msg != "cache: StackDist is limited to 8 distinct blocks" {
			t.Fatalf("ninth block: recovered %v", r)
		}
		// The refused block left no trace.
		if sd.ColdMisses(trace.Heap) != 8 || sd.Accesses(trace.Heap) != 200 {
			t.Fatalf("after the panic: %d cold of %d accesses", sd.ColdMisses(trace.Heap), sd.Accesses(trace.Heap))
		}
	}()
	sd.Observe(blockAccess(8))
}
