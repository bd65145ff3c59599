package cache

import (
	"math"
	"testing"

	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// equivTrace builds a deterministic block-aligned stream with a hot set
// (short reuse distances), a rotating medium set (long distances), and a
// cold sequential scan (compulsory misses) — the three regimes the sweep
// experiments see.
func equivTrace(n int) []trace.Access {
	rng := stats.NewRNG(0xe9)
	var out []trace.Access
	var scan uint64
	medium := uint64(0)
	for i := 0; i < n; i++ {
		var addr uint64
		seg := trace.Heap
		switch {
		case rng.Bool(0.5): // hot set: 32 blocks
			addr = rng.Uint64n(32) * 64
		case rng.Bool(0.5): // medium set: 2048 blocks, round robin
			addr = 1<<20 + (medium%2048)*64
			medium++
		default: // cold scan
			scan += 64
			addr = 1<<30 + scan
			seg = trace.Shard
		}
		out = append(out, trace.Access{Addr: addr, Size: 1, Seg: seg, Kind: trace.Read})
	}
	return out
}

// TestStackDistMatchesFAReplay is the equivalence proof behind the
// capacity-sweep fast path: at power-of-two capacities, the one-pass
// stack-distance profile must agree EXACTLY with a full fully-associative
// LRU replay at each capacity (Mattson's inclusion property). This is what
// licenses routing capacity-only sweeps through StackDist instead of N
// replays.
func TestStackDistMatchesFAReplay(t *testing.T) {
	tr := equivTrace(30_000)
	sd := NewStackDist(64)
	for _, a := range tr {
		sd.Observe(a)
	}
	for _, capBlocks := range []int64{1, 4, 16, 64, 256, 1024, 4096, 16384} {
		capBytes := capBlocks * 64
		c := New(Config{Name: "fa", Size: capBytes, BlockSize: 64, Assoc: 0, Policy: LRU})
		var hits [trace.NumSegments]int64
		for _, a := range tr {
			block := c.BlockAddr(a.Addr)
			if c.Access(block, a.Seg, a.Kind) {
				hits[a.Seg]++
			} else {
				c.Fill(block, a.Seg, false)
			}
		}
		for seg := trace.Segment(0); seg < trace.NumSegments; seg++ {
			got := sd.Hits(seg, capBytes)
			if math.Abs(got-float64(hits[seg])) > 1e-9 {
				t.Errorf("cap %d blocks, seg %s: StackDist hits %.1f, FA-LRU replay hits %d",
					capBlocks, seg, got, hits[seg])
			}
		}
	}
}
